package rlite

import "testing"

// TestNumberLiterals pins the number grammar the lexer emits: every
// literal is a double (so integers past int64 still parse), and a
// literal that does not fit or is malformed fails with the exact error.
func TestNumberLiterals(t *testing.T) {
	cases := []struct {
		src     string
		want    float64
		wantErr string
	}{
		{src: "42", want: 42},
		{src: "007", want: 7},
		{src: "9223372036854775807", want: 9223372036854775807},
		{src: "9223372036854775808", want: 9223372036854775808},
		{src: "1.", want: 1},
		{src: ".5", want: 0.5},
		{src: "1e5", want: 1e5},
		{src: "1E5", want: 1e5},
		{src: "1.5e-3", want: 1.5e-3},
		{src: "2.5E+3", want: 2500},
		{src: "1e400", wantErr: `rlite: line 1: bad number "1e400"`},
		{src: "1e", wantErr: `rlite: line 1: bad number "1e"`},
		{src: "1.2.3", wantErr: `rlite: line 1: bad number "1.2.3"`},
		{src: "1e5e3", wantErr: `rlite: line 1: bad number "1e5e3"`},
	}
	for _, c := range cases {
		got, err := New().Eval(c.src)
		if c.wantErr != "" {
			if err == nil || err.Error() != c.wantErr {
				t.Errorf("%s: err = %v, want %q", c.src, err, c.wantErr)
			}
			continue
		}
		nv, ok := got.(*NumVec)
		if err != nil || !ok || len(nv.V) != 1 || nv.V[0] != c.want {
			t.Errorf("%s = %v (%v), want %v", c.src, got, err, c.want)
		}
	}
}
