// Package trace is the per-app observability layer of the pipeline:
// lightweight span trees propagated through context.Context. Every
// analysis run produces one Trace — a root span covering the whole run
// with one child span per executed pipeline stage — carrying string
// attributes (loader kind, provenance, entity, status) and timestamped
// structured events (one per DCL load). Traces serialize to one JSON
// object per line (JSONL) and live in a bounded on-disk store keyed by
// the APK signing digest, so a slow or misbehaving app stays inspectable
// long after its aggregate counters have been folded into a snapshot.
//
// The package has no dependency on the rest of the pipeline; core,
// bouncer, service and experiments all attach to it through three calls:
// Start (open a child span, creating a trace when the context has none),
// FromContext (recover the trace), and Span.End.
package trace

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span or event.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// A is shorthand for constructing an Attr at call sites.
func A(key, value string) Attr { return Attr{Key: key, Value: value} }

// Event is one timestamped structured occurrence inside a span (e.g. a
// single DCL load with its attribution).
type Event struct {
	Time  time.Time `json:"time"`
	Name  string    `json:"name"`
	Attrs []Attr    `json:"attrs,omitempty"`
}

// Span is one named, timed node of the trace tree. All methods are safe
// for concurrent use and no-ops on a nil receiver, so callers can thread
// optional spans without nil checks.
type Span struct {
	Name    string    `json:"name"`
	StartAt time.Time `json:"start"`
	EndAt   time.Time `json:"end"`
	// ID, when set, names the span across process boundaries: a caller
	// forwarding work to another process sends "<traceID>:<spanID>" (the
	// X-Dydroid-Parent header) so the remote tree can later be grafted
	// back under this exact span. Most spans never need one.
	ID       string  `json:"id,omitempty"`
	Err      string  `json:"err,omitempty"`
	Attrs    []Attr  `json:"attrs,omitempty"`
	Events   []Event `json:"events,omitempty"`
	Children []*Span `json:"children,omitempty"`

	mu sync.Mutex
}

// Trace is one complete span tree with its identity.
type Trace struct {
	// ID names the trace across process boundaries (the value of the
	// daemon's X-Dydroid-Trace response header).
	ID string `json:"id"`
	// Digest is the APK signing digest — the trace store key. Empty when
	// the analysis ran outside a content-addressed context.
	Digest string `json:"digest,omitempty"`
	Root   *Span  `json:"root"`
}

// Option configures New.
type Option func(*Trace)

// WithID pins the trace ID (e.g. derived from the signing digest so
// clients can compute it); the default is a random 16-hex-char ID.
func WithID(id string) Option { return func(t *Trace) { t.ID = id } }

// WithDigest records the APK signing digest the trace is keyed under.
func WithDigest(d string) Option { return func(t *Trace) { t.Digest = d } }

// New creates a trace whose root span is named name and started now.
func New(name string, opts ...Option) *Trace {
	t := &Trace{Root: &Span{Name: name, StartAt: time.Now()}}
	for _, o := range opts {
		o(t)
	}
	if t.ID == "" {
		t.ID = NewID()
	}
	return t
}

// IDFromDigest derives the deterministic trace ID of a digest-keyed
// analysis run: its leading 16 hex chars. Both the vetting daemon and the
// cluster coordinator derive their trace IDs this way, so a client (or a
// coordinator stitching a cross-node tree) can compute the ID from the
// digest alone.
func IDFromDigest(digest string) string {
	if len(digest) > 16 {
		return digest[:16]
	}
	return digest
}

// ParentRef encodes a cross-process parent reference ("<traceID>:<spanID>")
// — the X-Dydroid-Parent header value a forwarding tier sends so the
// remote process can record which span its local tree belongs under.
func ParentRef(traceID, spanID string) string { return traceID + ":" + spanID }

// Parent attribute keys recorded on a root span built from an incoming
// ParentRef (see SetParent).
const (
	AttrParentTrace = "parent.trace"
	AttrParentSpan  = "parent.span"
)

// SetParent records an incoming ParentRef on the span as parent.trace /
// parent.span attributes. Malformed or empty refs are ignored — parenting
// is best-effort observability, never a request error.
func (s *Span) SetParent(ref string) {
	if s == nil || ref == "" {
		return
	}
	i := strings.IndexByte(ref, ':')
	if i <= 0 || i == len(ref)-1 {
		return
	}
	s.SetAttr(AttrParentTrace, ref[:i])
	s.SetAttr(AttrParentSpan, ref[i+1:])
}

// Graft attaches child's root under the span of parent whose ID matches
// the child root's parent.span attribute, stitching a remote subtree back
// into the tree that forwarded it. When the child carries no usable
// reference (or no span matches), the child root is appended under
// parent's root instead, so a stitched read never loses the remote tree.
// It reports whether an exact parent match was found.
func Graft(parent, child *Trace) bool {
	if parent == nil || parent.Root == nil || child == nil || child.Root == nil {
		return false
	}
	want := child.Root.Attr(AttrParentSpan)
	var target *Span
	if want != "" {
		parent.Root.Walk(func(sp *Span) {
			if target == nil && sp.ID != "" && sp.ID == want {
				target = sp
			}
		})
	}
	matched := target != nil
	if target == nil {
		target = parent.Root
	}
	target.mu.Lock()
	target.Children = append(target.Children, child.Root)
	target.mu.Unlock()
	return matched
}

// NewID returns a random 16-hex-char trace ID.
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the platform entropy source is gone;
		// a fixed ID keeps tracing best-effort rather than fatal.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// ctxKey carries the trace and its innermost open span through a context.
type ctxKey struct{}

type ctxVal struct {
	t *Trace
	s *Span
}

// ContextWith returns ctx carrying the trace with its root as the active
// span. Callers that construct the Trace themselves (the vetting daemon,
// which derives IDs from digests) use this; everyone else uses Start.
func ContextWith(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, ctxVal{t: t, s: t.Root})
}

// FromContext returns the trace carried by ctx, or nil.
func FromContext(ctx context.Context) *Trace {
	if v, ok := ctx.Value(ctxKey{}).(ctxVal); ok {
		return v.t
	}
	return nil
}

// Start opens a span named name as a child of the active span in ctx and
// returns the derived context plus the span. When ctx carries no trace, a
// fresh one is created with the new span as root — so a library can
// always call Start and both standalone and joined callers get a
// coherent tree. The caller must End the span.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	if v, ok := ctx.Value(ctxKey{}).(ctxVal); ok {
		child := v.s.child(name)
		return context.WithValue(ctx, ctxKey{}, ctxVal{t: v.t, s: child}), child
	}
	t := New(name)
	return context.WithValue(ctx, ctxKey{}, ctxVal{t: t, s: t.Root}), t.Root
}

// child appends a started child span.
func (s *Span) child(name string) *Span {
	c := &Span{Name: name, StartAt: time.Now()}
	s.mu.Lock()
	s.Children = append(s.Children, c)
	s.mu.Unlock()
	return c
}

// StartChild opens a child span directly on s, for callers that manage a
// trace without threading a context (e.g. the coordinator's per-attempt
// routing spans). The caller must End it. Nil receivers return nil, which
// every Span method tolerates.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	return s.child(name)
}

// SetAttr annotates the span; setting an existing key replaces its value.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.Attrs {
		if s.Attrs[i].Key == key {
			s.Attrs[i].Value = value
			return
		}
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: value})
}

// SetIntAttr annotates the span with an integer value (attrs are
// strings on the wire; this is the decimal convenience used by the
// resource-attribution meter).
func (s *Span) SetIntAttr(key string, v int64) {
	s.SetAttr(key, strconv.FormatInt(v, 10))
}

// IntAttr returns the named attribute parsed as a decimal integer
// (0 when absent or non-numeric).
func (s *Span) IntAttr(key string) int64 {
	v, _ := strconv.ParseInt(s.Attr(key), 10, 64)
	return v
}

// Attr returns the value of the named attribute ("" when absent).
func (s *Span) Attr(key string) string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// AddEvent records a timestamped structured event inside the span.
func (s *Span) AddEvent(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.Events = append(s.Events, Event{Time: time.Now(), Name: name, Attrs: attrs})
	s.mu.Unlock()
}

// End closes the span. A second End is a no-op, so error paths can End
// eagerly while normal paths defer.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.EndAt.IsZero() {
		s.EndAt = time.Now()
	}
	s.mu.Unlock()
}

// EndErr closes the span recording err as its failure status.
func (s *Span) EndErr(err error) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if err != nil && s.Err == "" {
		s.Err = err.Error()
	}
	if s.EndAt.IsZero() {
		s.EndAt = time.Now()
	}
	s.mu.Unlock()
}

// Duration is the span's elapsed time (to now while still open).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.EndAt.IsZero() {
		return time.Since(s.StartAt)
	}
	return s.EndAt.Sub(s.StartAt)
}

// Walk visits the span and every descendant depth-first in child order.
func (s *Span) Walk(fn func(*Span)) {
	if s == nil {
		return
	}
	fn(s)
	s.mu.Lock()
	children := append([]*Span(nil), s.Children...)
	s.mu.Unlock()
	for _, c := range children {
		c.Walk(fn)
	}
}

// Find returns the first span named name in the subtree (depth-first),
// or nil.
func (s *Span) Find(name string) *Span {
	var found *Span
	s.Walk(func(sp *Span) {
		if found == nil && sp.Name == name {
			found = sp
		}
	})
	return found
}
