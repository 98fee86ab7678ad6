package trace

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Render writes the trace as an indented timing tree, one span per line
// with its duration, share of the root, attributes, and error; span
// events render as nested "·" lines. This is the `apkinspect trace`
// output format.
func Render(w io.Writer, t *Trace) {
	if t == nil || t.Root == nil {
		return
	}
	fmt.Fprintf(w, "trace %s", t.ID)
	if t.Digest != "" {
		fmt.Fprintf(w, "  digest %s", t.Digest)
	}
	fmt.Fprintln(w)
	total := t.Root.Duration()
	renderSpan(w, t.Root, 0, total)
}

func renderSpan(w io.Writer, s *Span, depth int, total time.Duration) {
	indent := strings.Repeat("  ", depth)
	width := 24 - len(indent)
	if width < 1 {
		width = 1
	}
	d := s.Duration()
	fmt.Fprintf(w, "%s%-*s %10s", indent, width, s.Name, roundDur(d))
	if total > 0 {
		fmt.Fprintf(w, "  %4.1f%%", 100*float64(d)/float64(total))
	}
	for _, a := range s.Attrs {
		fmt.Fprintf(w, "  %s=%s", a.Key, a.Value)
	}
	if s.Err != "" {
		fmt.Fprintf(w, "  ERROR: %s", s.Err)
	}
	fmt.Fprintln(w)
	for _, ev := range s.Events {
		fmt.Fprintf(w, "%s  · %s", indent, ev.Name)
		for _, a := range ev.Attrs {
			fmt.Fprintf(w, " %s=%s", a.Key, a.Value)
		}
		fmt.Fprintln(w)
	}
	for _, c := range s.Children {
		if c != nil { // a decoded tree may carry "children":[null]
			renderSpan(w, c, depth+1, total)
		}
	}
}

func roundDur(d time.Duration) time.Duration {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond)
	case d >= time.Millisecond:
		return d.Round(time.Microsecond)
	default:
		return d.Round(time.Nanosecond)
	}
}
