package core

// pktArena recycles the per-processor packet-handle buffers ([][]int32
// of length m.N) that every routing leg of a PRAM step needs: the simulator keeps
// a free list so steady-state simulation stops reallocating them (and
// their per-processor slices regrow to capacity once and stay).
//
// Contract: put takes back a buffer whose entries have all been
// truncated to length 0 by the consumer (land and the forward stages'
// merge loop do this as they drain), so get can hand it out as-is.
type pktArena struct {
	free [][][]int32
	n    int
}

func newPktArena(n int) *pktArena { return &pktArena{n: n} }

func (a *pktArena) get() [][]int32 {
	if len(a.free) == 0 {
		return make([][]int32, a.n)
	}
	buf := a.free[len(a.free)-1]
	a.free = a.free[:len(a.free)-1]
	return buf
}

func (a *pktArena) put(buf [][]int32) {
	if buf == nil {
		return
	}
	a.free = append(a.free, buf)
}
