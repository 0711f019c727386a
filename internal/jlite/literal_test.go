package jlite

import "testing"

// TestNumberLiterals pins the number grammar the lexer emits: every
// literal's value and type, and the exact error for a literal that does
// not fit (int64 overflow, float overflow) or is not a number. A decimal
// point needs a following digit (`1.+2` is 1 .+ 2), so `1.` is not a
// literal.
func TestNumberLiterals(t *testing.T) {
	cases := []struct {
		src     string
		want    Value
		wantErr string
	}{
		{src: "42", want: int64(42)},
		{src: "007", want: int64(7)},
		{src: "9223372036854775807", want: int64(9223372036854775807)},
		{src: "9223372036854775808", wantErr: `jlite: line 1: bad integer "9223372036854775808"`},
		{src: "1.", wantErr: `jlite: line 1: unexpected character '.'`},
		{src: ".5", want: 0.5},
		{src: "1e5", want: 1e5},
		{src: "1E5", want: 1e5},
		{src: "1.5e-3", want: 1.5e-3},
		{src: "2.5E+3", want: 2500.0},
		{src: "1e400", wantErr: `jlite: line 1: bad number "1e400"`},
	}
	for _, c := range cases {
		got, err := New().EvalExpr(c.src)
		if c.wantErr != "" {
			if err == nil || err.Error() != c.wantErr {
				t.Errorf("%s: err = %v, want %q", c.src, err, c.wantErr)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("%s = %#v (%v), want %#v", c.src, got, err, c.want)
		}
	}
}
