package culling

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"meshpram/internal/hmos"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenAvail draws seeded availability masks: a quarter of the
// requests keep a nil mask (all copies live), most lose each copy with
// probability 0.15, and one in eight loses each copy with probability
// 0.6 — enough to push requests onto the plain-set fallback and into
// Unservable.
func goldenAvail(reqs, qk int, rng *rand.Rand) [][]bool {
	avail := make([][]bool, reqs)
	for r := range avail {
		x := rng.Intn(8)
		if x < 2 {
			continue
		}
		p := 0.15
		if x == 7 {
			p = 0.6
		}
		mask := make([]bool, qk)
		for leaf := range mask {
			mask[leaf] = rng.Float64() >= p
		}
		avail[r] = mask
	}
	return avail
}

// encodeResult renders a Result canonically: every selected copy, every
// page load, the charged steps and the unservable list. The golden
// records its length and SHA-256 together with a readable summary.
func encodeResult(res *Result) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "steps %d\n", res.Steps)
	fmt.Fprintf(&b, "unservable %v\n", res.Unservable)
	for i, loads := range res.PageLoad {
		fmt.Fprintf(&b, "pageload %d %v bound %d\n", i, loads, res.Bound[i])
	}
	for r, sel := range res.Selected {
		fmt.Fprintf(&b, "sel %d", r)
		for _, c := range sel {
			fmt.Fprintf(&b, " %d@%d", c.Leaf, c.Proc)
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// TestResultGolden pins culling.Result for seeded full batches at sides
// 27 and 81, with and without availability masks, for all three
// selection procedures. The golden was generated before the flat-buffer
// rewrite of RunAvail and the target-set DP, so it proves the rewrite
// selected exactly the same copies at exactly the same cost.
func TestResultGolden(t *testing.T) {
	var out bytes.Buffer
	for _, p := range []hmos.Params{{Side: 27, Q: 3, D: 5, K: 2}, {Side: 81, Q: 3, D: 7, K: 2}} {
		s, m := scheme(t, p)
		for _, seed := range []int64{1, 2} {
			// The batch of workload.RandomDistinct(M, n, seed), inlined:
			// workload imports core, which imports this package.
			vars := rand.New(rand.NewSource(seed)).Perm(s.Vars())[:m.N]
			reqs := make([]Request, len(vars))
			for i, v := range vars {
				reqs[i] = Request{Origin: i, Var: v}
			}
			avail := goldenAvail(len(reqs), s.Redundant, rand.New(rand.NewSource(seed)))
			runs := []struct {
				name string
				res  *Result
			}{
				{"run", RunAvail(s, m, reqs, nil)},
				{"run-avail", RunAvail(s, m, reqs, avail)},
				{"noculling-avail", SelectWithoutCullingAvail(s, m, reqs, avail)},
				{"hardened-avail", SelectHardenedAvail(s, m, reqs, avail)},
			}
			for _, run := range runs {
				enc := encodeResult(run.res)
				selected := 0
				for _, sel := range run.res.Selected {
					selected += len(sel)
				}
				fmt.Fprintf(&out, "side=%d seed=%d %s: steps=%d selected=%d unservable=%d",
					p.Side, seed, run.name, run.res.Steps, selected, len(run.res.Unservable))
				for i := 1; i <= s.K; i++ {
					mx, bd := run.res.MaxLoad(i)
					fmt.Fprintf(&out, " maxload%d=%d/%d", i, mx, bd)
				}
				fmt.Fprintf(&out, " bytes=%d sha256=%x\n", len(enc), sha256.Sum256(enc))
			}
		}
	}
	path := filepath.Join("testdata", "result.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test -update): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("culling results differ from %s:\n--- got ---\n%s\n--- want ---\n%s", path, out.Bytes(), want)
	}
}
