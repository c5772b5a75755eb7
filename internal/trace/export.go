package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// Node is the serialization-friendly snapshot of a Span subtree: the
// one schema every execution path exports (cmd/experiments -json,
// sinks, tests).
type Node struct {
	Name     string           `json:"name"`
	Phase    string           `json:"phase"`
	Parallel bool             `json:"parallel,omitempty"`
	Charged  int64            `json:"charged"`
	Observed int64            `json:"observed,omitempty"`
	Executed int64            `json:"executed,omitempty"`
	Packets  int64            `json:"packets,omitempty"`
	WallNs   int64            `json:"wall_ns"`
	Attrs    map[string]int64 `json:"attrs,omitempty"`
	Children []*Node          `json:"children,omitempty"`
}

// Export snapshots a span subtree into Nodes. Safe once the span has
// ended (the tree is no longer mutated).
func Export(s *Span) *Node {
	if s == nil {
		return nil
	}
	n := &Node{
		Name:     s.Name(),
		Phase:    s.Phase().String(),
		Parallel: s.Parallel(),
		Charged:  s.Charged(),
		Observed: s.Observed(),
		Executed: s.Executed(),
		Packets:  s.Packets(),
		WallNs:   s.WallNs(),
	}
	if attrs := s.Attrs(); len(attrs) > 0 {
		n.Attrs = make(map[string]int64, len(attrs))
		for _, a := range attrs {
			n.Attrs[a.Key] = a.Val
		}
	}
	for _, c := range s.Children() {
		n.Children = append(n.Children, Export(c))
	}
	return n
}

// WriteJSON writes the subtree as indented JSON.
func WriteJSON(w io.Writer, s *Span) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Export(s))
}

// WriteCSV writes the subtree as flat CSV rows
// (depth,path,phase,charged,observed,packets,wall_ns).
func WriteCSV(w io.Writer, s *Span) error {
	if _, err := fmt.Fprintln(w, "depth,path,phase,charged,observed,packets,wall_ns"); err != nil {
		return err
	}
	return writeCSVNode(w, s, "", 0)
}

func writeCSVNode(w io.Writer, s *Span, prefix string, depth int) error {
	if s == nil {
		return nil
	}
	path := s.Name()
	if prefix != "" {
		path = prefix + "/" + s.Name()
	}
	if _, err := fmt.Fprintf(w, "%d,%s,%s,%d,%d,%d,%d\n",
		depth, path, s.Phase(), s.Charged(), s.Observed(), s.Packets(), s.WallNs()); err != nil {
		return err
	}
	for _, c := range s.Children() {
		if err := writeCSVNode(w, c, path, depth+1); err != nil {
			return err
		}
	}
	return nil
}

// JSONSink writes every completed root span as one indented JSON
// document to the underlying writer.
type JSONSink struct{ W io.Writer }

// Emit implements Sink. The Sink interface has no error channel; a
// failed diagnostics write must not abort the simulation it observes.
//
//detlint:ignore checkederr best-effort diagnostics sink; Sink has no error channel
func (s JSONSink) Emit(root *Span) { _ = WriteJSON(s.W, root) }

// CSVSink writes every completed root span as CSV rows (with a header
// per tree) to the underlying writer.
type CSVSink struct{ W io.Writer }

// Emit implements Sink.
//
//detlint:ignore checkederr best-effort diagnostics sink; Sink has no error channel
func (s CSVSink) Emit(root *Span) { _ = WriteCSV(s.W, root) }

// CollectSink retains every completed root span in memory (tests,
// short sessions).
type CollectSink struct{ Roots []*Span }

// Emit implements Sink.
func (s *CollectSink) Emit(root *Span) { s.Roots = append(s.Roots, root) }
