// Package fix is a checkederr fixture: discarding error or lost-count
// results from module-internal calls must be flagged; stdlib discards
// and captured results must not.
package fix

import (
	"bytes"
	"fmt"

	"meshpram/internal/core"
	"meshpram/internal/mesh"
	"meshpram/internal/route"
)

func discardAll(sim *core.Simulator, ops []core.Op) {
	sim.StepChecked(ops) // want checkederr
}

func blankError(sim *core.Simulator, ops []core.Op) []core.Word {
	res, _, _ := sim.StepChecked(ops) // want checkederr
	return res
}

func blankLost(m *mesh.Machine, items [][]int) int64 {
	_, steps, _ := route.NewEngine[int](m).RouteFault(nil, route.Whole(m, false), items, func(x int) int { return x }) // want checkederr
	return steps
}

func captured(sim *core.Simulator, ops []core.Op) error {
	_, _, err := sim.StepChecked(ops)
	return err
}

func stdlibDiscard(buf *bytes.Buffer) {
	fmt.Fprintf(buf, "stdlib errors are outside detlint's remit")
}

func suppressedDiscard(sim *core.Simulator, buf *bytes.Buffer) {
	//detlint:ignore checkederr fixture demonstrates a deliberate best-effort save
	sim.Save(buf)
}
