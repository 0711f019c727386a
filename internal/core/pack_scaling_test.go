package core

import (
	"fmt"
	"strings"
	"testing"
)

// packProgram builds 1..n in R, crosses the container<->vector bridge
// twice with an R map between, and sums in Python: the printed sum is
// (sum(2i+1) - n)/2 = n(n+1)/2.
func packProgram(n int) string {
	return fmt.Sprintf(`blob v0 = r("x <- 1:%d", "x");
int a[] = vunpack(v0);
blob v1 = vpack(a);
blob v2 = r("y <- argv1 * 2 + 1", "y", v1);
float b[] = vunpack(v2);
blob v3 = vpack(b);
float s = python("", "(sum(argv1) - len(argv1)) / 2", v3);
printf("size=%%i sum=%%s", size(b), toString(s));
`, n)
}

// The container<->vector bridge costs a number of data-store RPCs that
// does not grow with the array: each vpack subscribes to all of its
// members in one batched call per owning server, so growing n from 512
// to 4096 leaves adlb data ops unchanged up to a small constant (one
// subscribe per member would add 2 × 3584).
func TestPackDataOpsIndependentOfN(t *testing.T) {
	ops := map[int]int64{}
	for _, n := range []int{512, 4096} {
		res, err := Run(packProgram(n), Config{Engines: 1, Workers: 4, Servers: 1})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		var size int
		var sum float64
		if _, err := fmt.Sscanf(strings.TrimSpace(res.Stdout), "size=%d sum=%g", &size, &sum); err != nil ||
			size != n || sum != float64(n*(n+1)/2) {
			t.Fatalf("n=%d: stdout %q, want size=%d sum=%d", n, res.Stdout, n, n*(n+1)/2)
		}
		ops[n] = res.ADLB.DataOps
	}
	t.Logf("adlb data ops: n=512 %d, n=4096 %d", ops[512], ops[4096])
	if d := ops[4096] - ops[512]; d < -8 || d > 8 {
		t.Fatalf("data ops n=512: %d, n=4096: %d; want equal up to a small constant", ops[512], ops[4096])
	}
}
