package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestSpanNesting(t *testing.T) {
	l := New()
	root := l.Begin("step", PhaseOther)
	if l.Active() != root {
		t.Fatal("root not active")
	}
	sort := l.Begin("sort", PhaseSort)
	sort.Charge(10)
	sort.End()
	if l.Active() != root {
		t.Fatal("active did not pop to root")
	}
	fwd := l.Begin("forward", PhaseForward)
	fwd.Charge(5)
	inner := l.Begin("greedy", PhaseForward)
	inner.Observe(7)
	inner.End()
	fwd.End()
	root.Charge(1)
	root.End()

	if got := root.Total(); got != 16 {
		t.Fatalf("Total = %d, want 16 (observed must not count)", got)
	}
	pt := root.PhaseTotals()
	if pt[PhaseSort] != 10 || pt[PhaseForward] != 5 || pt[PhaseOther] != 1 {
		t.Fatalf("phase totals %v", pt)
	}
	if l.Last() != root {
		t.Fatal("Last() should return the completed root")
	}
	if c := fwd.Children(); len(c) != 1 || c[0] != inner || inner.Observed() != 7 {
		t.Fatalf("forward's children = %v", c)
	}
}

func TestNilSafety(t *testing.T) {
	var l *Ledger
	sp := l.Begin("x", PhaseSort)
	if sp != nil {
		t.Fatal("nil ledger must return nil span")
	}
	sp.Charge(3)
	sp.Observe(3)
	sp.AddPackets(1)
	sp.SetAttr("k", 1)
	sp.End()
	l.Charge(5)
	if sp.Total() != 0 || l.Last() != nil || l.Active() != nil {
		t.Fatal("nil receivers must be no-ops")
	}
}

func TestNegativeChargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l := New()
	l.Begin("x", PhaseOther).Charge(-1)
}

func TestAttrs(t *testing.T) {
	l := New()
	sp := l.Begin("stage", PhaseOther)
	sp.SetAttr("delta", 4)
	sp.SetAttr("delta", 9) // last wins
	sp.SetAttr("stage", 2)
	sp.End()
	if v, ok := sp.Attr("delta"); !ok || v != 9 {
		t.Fatalf("Attr(delta) = %d, %v", v, ok)
	}
	if _, ok := sp.Attr("missing"); ok {
		t.Fatal("missing attr reported present")
	}
	if len(sp.Attrs()) != 3 {
		t.Fatalf("attrs %v", sp.Attrs())
	}
}

func TestLedgerChargeGoesToActive(t *testing.T) {
	l := New()
	root := l.Begin("op", PhaseOther)
	child := l.Begin("access", PhaseAccess)
	l.Charge(11)
	child.End()
	l.Charge(2)
	root.End()
	if child.Charged() != 11 || root.Charged() != 2 {
		t.Fatalf("charged root=%d child=%d", root.Charged(), child.Charged())
	}
	// Charges with no active span are dropped, not panicking.
	l.Charge(100)
	if root.Total() != 13 {
		t.Fatalf("total %d", root.Total())
	}
}

func TestConcurrentCharges(t *testing.T) {
	l := New()
	sp := l.Begin("par", PhaseAccess)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				sp.Charge(1)
				sp.AddPackets(1)
				sp.Observe(1)
			}
		}()
	}
	wg.Wait()
	sp.End()
	if sp.Charged() != 8000 || sp.Packets() != 8000 || sp.Observed() != 8000 {
		t.Fatalf("charged=%d packets=%d observed=%d", sp.Charged(), sp.Packets(), sp.Observed())
	}
}

func TestSinksReceiveRoots(t *testing.T) {
	var collect CollectSink
	var buf bytes.Buffer
	l := New()
	l.AddSink(&collect)
	l.AddSink(JSONSink{&buf})
	for i := 0; i < 3; i++ {
		r := l.Begin("step", PhaseOther)
		l.Begin("sort", PhaseSort).End()
		r.End()
	}
	if len(collect.Roots) != 3 {
		t.Fatalf("collected %d roots", len(collect.Roots))
	}
	dec := json.NewDecoder(&buf)
	for i := 0; i < 3; i++ {
		var n Node
		if err := dec.Decode(&n); err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		if n.Name != "step" || len(n.Children) != 1 || n.Children[0].Phase != "sort" {
			t.Fatalf("doc %d: %+v", i, n)
		}
	}
}

func TestExportAndCSV(t *testing.T) {
	l := New()
	root := l.Begin("step", PhaseOther)
	s := l.BeginPar("stage-2", PhaseOther)
	sub := l.Begin("submesh-0", PhaseForward)
	sub.Observe(9)
	sub.AddPackets(4)
	sub.End()
	lf := l.Begin("forward", PhaseForward)
	lf.Charge(9)
	lf.End()
	s.SetAttr("delta", 3)
	s.End()
	root.End()

	n := Export(root)
	if n.Children[0].Attrs["delta"] != 3 || !n.Children[0].Parallel {
		t.Fatalf("export %+v", n.Children[0])
	}
	if n.Children[0].Children[0].Observed != 9 {
		t.Fatal("observed lost in export")
	}

	var csv bytes.Buffer
	if err := WriteCSV(&csv, root); err != nil {
		t.Fatal(err)
	}
	out := csv.String()
	if !strings.Contains(out, "step/stage-2/forward,forward,9,0,0") {
		t.Fatalf("csv:\n%s", out)
	}
	if !strings.HasPrefix(out, "depth,path,phase,charged,observed,packets,wall_ns\n") {
		t.Fatalf("csv header:\n%s", out)
	}
}

func TestPhaseStrings(t *testing.T) {
	want := []string{"other", "culling", "sort", "rank", "forward", "access", "return"}
	for i, w := range want {
		if Phase(i).String() != w {
			t.Fatalf("phase %d = %q", i, Phase(i).String())
		}
	}
	if Phase(250).String() != "invalid" {
		t.Fatal("out-of-range phase")
	}
}
