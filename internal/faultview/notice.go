package faultview

// Notice wire grammar. A notice is one versioned fault observation
// created at a witness node and disseminated by gossip:
//
//	#SEQ@ORIGIN+ROUND kind:P[-Q][xFACTOR]
//
//	#0@40+12 kill-node:39        origin 40's notice 0, created at round 12
//	#2@5+30 slow-link:5-6x4      edge 5–6 observed slow by factor 4
//	#1@7+9 revive-node:7         node 7 announcing its own revival
//
// SEQ is the origin's monotone per-origin sequence number, ROUND the
// gossip round the notice was created at, and the body reuses the
// fault-schedule event kinds (fault.EventKind spellings).

import (
	"fmt"

	"meshpram/internal/fault"
)

// Notice is one versioned fault observation in the gossip log.
type Notice struct {
	Seq    int   // per-origin monotone sequence number
	Origin int   // witness node that created the notice
	Round  int64 // gossip round at creation (staleness baseline)

	Kind   fault.EventKind
	P, Q   int // component ids; Q only for link kinds
	Factor int // slow factor for slow-link (≥ 2)
}

// Event converts the notice body back into the fault event it reports.
func (nt Notice) Event() fault.Event {
	return fault.Event{Kind: nt.Kind, P: nt.P, Q: nt.Q, Factor: nt.Factor}
}

// String renders the notice in wire form.
func (nt Notice) String() string {
	var body string
	switch nt.Kind {
	case fault.EvKillLink, fault.EvReviveLink, fault.EvHealLink:
		body = fmt.Sprintf("%s:%d-%d", nt.Kind, nt.P, nt.Q)
	case fault.EvSlowLink:
		body = fmt.Sprintf("%s:%d-%dx%d", nt.Kind, nt.P, nt.Q, nt.Factor)
	default:
		body = fmt.Sprintf("%s:%d", nt.Kind, nt.P)
	}
	return fmt.Sprintf("#%d@%d+%d %s", nt.Seq, nt.Origin, nt.Round, body)
}

// isNetworkKind reports whether a notice of kind k is about the network
// (a node or a link) rather than a memory module.
func isNetworkKind(k fault.EventKind) bool {
	return k != fault.EvKillModule && k != fault.EvReviveModule
}
