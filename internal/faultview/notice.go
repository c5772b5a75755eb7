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
// fault-schedule event kinds (fault.EventKind spellings). ParseNotice
// and Notice.String round-trip exactly; the grammar is fuzzed by
// FuzzParseNotice.

import (
	"fmt"
	"strconv"
	"strings"

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

// kindByName maps the wire spellings back to event kinds. The
// spellings are pinned to fault.EventKind.String by TestNoticeKinds.
var kindByName = map[string]fault.EventKind{
	"kill-node":     fault.EvKillNode,
	"revive-node":   fault.EvReviveNode,
	"kill-module":   fault.EvKillModule,
	"revive-module": fault.EvReviveModule,
	"kill-link":     fault.EvKillLink,
	"revive-link":   fault.EvReviveLink,
	"slow-link":     fault.EvSlowLink,
	"heal-link":     fault.EvHealLink,
}

func isLinkKind(k fault.EventKind) bool {
	switch k {
	case fault.EvKillLink, fault.EvReviveLink, fault.EvSlowLink, fault.EvHealLink:
		return true
	}
	return false
}

// isNetworkKind reports whether a notice of kind k is about the network
// (a node or a link) rather than a memory module.
func isNetworkKind(k fault.EventKind) bool {
	return k != fault.EvKillModule && k != fault.EvReviveModule
}

// adjacent reports whether p and q share a mesh edge on a side×side
// mesh, counting torus wrap edges (mirrors fault's adjacency rule).
func adjacent(side, p, q int) bool {
	pr, pc := p/side, p%side
	qr, qc := q/side, q%side
	dr, dc := pr-qr, pc-qc
	if dr < 0 {
		dr = -dr
	}
	if dc < 0 {
		dc = -dc
	}
	if dr == side-1 && side > 1 {
		dr = 1
	}
	if dc == side-1 && side > 1 {
		dc = 1
	}
	return dr+dc == 1
}

// ParseNotice parses the wire form of a notice against a side×side
// mesh, validating ranges and link adjacency.
func ParseNotice(side int, s string) (Notice, error) {
	var nt Notice
	if side < 1 {
		return nt, fmt.Errorf("faultview: side %d must be ≥ 1", side)
	}
	n := side * side
	s = strings.TrimSpace(s)
	rest, ok := strings.CutPrefix(s, "#")
	if !ok {
		return nt, fmt.Errorf("faultview: notice %q missing '#SEQ' prefix", s)
	}
	head, body, ok := strings.Cut(rest, " ")
	if !ok {
		return nt, fmt.Errorf("faultview: notice %q: want '#SEQ@ORIGIN+ROUND kind:ids'", s)
	}
	seqs, tail, ok := strings.Cut(head, "@")
	if !ok {
		return nt, fmt.Errorf("faultview: notice %q missing '@ORIGIN'", s)
	}
	origins, rounds, ok := strings.Cut(tail, "+")
	if !ok {
		return nt, fmt.Errorf("faultview: notice %q missing '+ROUND'", s)
	}
	seq, err := strconv.Atoi(seqs)
	if err != nil || seq < 0 {
		return nt, fmt.Errorf("faultview: bad notice seq %q", seqs)
	}
	origin, err := strconv.Atoi(origins)
	if err != nil || origin < 0 || origin >= n {
		return nt, fmt.Errorf("faultview: bad notice origin %q (mesh has %d nodes)", origins, n)
	}
	round, err := strconv.ParseInt(rounds, 10, 64)
	if err != nil || round < 0 {
		return nt, fmt.Errorf("faultview: bad notice round %q", rounds)
	}
	kinds, ids, ok := strings.Cut(strings.TrimSpace(body), ":")
	if !ok {
		return nt, fmt.Errorf("faultview: notice body %q missing ':'", body)
	}
	kind, ok := kindByName[kinds]
	if !ok {
		return nt, fmt.Errorf("faultview: unknown notice kind %q", kinds)
	}
	nt = Notice{Seq: seq, Origin: origin, Round: round, Kind: kind}
	if isLinkKind(kind) {
		if kind == fault.EvSlowLink {
			var fs string
			ids, fs, ok = strings.Cut(ids, "x")
			if !ok {
				return Notice{}, fmt.Errorf("faultview: slow-link notice %q missing xFACTOR", body)
			}
			v, err := strconv.Atoi(fs)
			if err != nil || v < 2 {
				return Notice{}, fmt.Errorf("faultview: bad slow factor %q", fs)
			}
			nt.Factor = v
		}
		ps, qs, ok := strings.Cut(ids, "-")
		if !ok {
			return Notice{}, fmt.Errorf("faultview: bad link %q (want P-Q)", ids)
		}
		p, err1 := strconv.Atoi(ps)
		q, err2 := strconv.Atoi(qs)
		if err1 != nil || err2 != nil || p < 0 || q < 0 || p >= n || q >= n {
			return Notice{}, fmt.Errorf("faultview: bad link %q", ids)
		}
		if !adjacent(side, p, q) {
			return Notice{}, fmt.Errorf("faultview: %d-%d is not a mesh (or wrap) edge", p, q)
		}
		nt.P, nt.Q = p, q
	} else {
		id, err := strconv.Atoi(ids)
		if err != nil || id < 0 || id >= n {
			return Notice{}, fmt.Errorf("faultview: bad %s id %q", kinds, ids)
		}
		nt.P = id
	}
	return nt, nil
}
