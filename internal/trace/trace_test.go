package trace

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestStartCreatesTraceAndNestsChildren(t *testing.T) {
	ctx := context.Background()
	if FromContext(ctx) != nil {
		t.Fatal("empty context should carry no trace")
	}
	ctx, root := Start(ctx, "app")
	tr := FromContext(ctx)
	if tr == nil || tr.Root != root {
		t.Fatal("Start on an empty context must create a trace rooted at the new span")
	}
	if len(tr.ID) != 16 {
		t.Fatalf("trace ID = %q, want 16 hex chars", tr.ID)
	}

	cctx, child := Start(ctx, "unpack")
	if FromContext(cctx) != tr {
		t.Fatal("child context must carry the same trace")
	}
	_, grand := Start(cctx, "decode")
	grand.End()
	child.End()
	root.End()

	if len(root.Children) != 1 || root.Children[0] != child {
		t.Fatalf("root children = %v, want [unpack]", root.Children)
	}
	if len(child.Children) != 1 || child.Children[0].Name != "decode" {
		t.Fatal("grandchild must nest under the child span, the one active in its context")
	}
	// A sibling started from the root context attaches to the root, not
	// the (ended) child.
	_, sib := Start(ctx, "static")
	sib.End()
	if len(root.Children) != 2 || root.Children[1].Name != "static" {
		t.Fatal("sibling must attach to the span active in its context")
	}
}

func TestSpanLifecycle(t *testing.T) {
	_, s := Start(context.Background(), "work")
	s.SetAttr("k", "v1")
	s.SetAttr("k", "v2") // replace, not append
	s.SetAttr("other", "x")
	s.AddEvent("dcl", A("kind", "dex"), A("entity", "own"))
	time.Sleep(time.Millisecond)
	s.EndErr(errors.New("boom"))
	end := s.EndAt
	s.End() // second End is a no-op
	if !s.EndAt.Equal(end) {
		t.Fatal("End after EndErr must not move the end time")
	}
	if s.Duration() <= 0 {
		t.Fatalf("duration = %v, want > 0", s.Duration())
	}
	if got := s.Attr("k"); got != "v2" {
		t.Fatalf("attr k = %q, want v2 (SetAttr must replace)", got)
	}
	if len(s.Attrs) != 2 {
		t.Fatalf("attrs = %v, want 2 entries", s.Attrs)
	}
	if s.Err != "boom" {
		t.Fatalf("err = %q, want boom", s.Err)
	}
	if len(s.Events) != 1 || s.Events[0].Name != "dcl" || len(s.Events[0].Attrs) != 2 {
		t.Fatalf("events = %+v, want one dcl event with 2 attrs", s.Events)
	}
}

func TestNilSpanIsSafe(t *testing.T) {
	var s *Span
	s.SetAttr("a", "b")
	s.AddEvent("x")
	s.End()
	s.EndErr(errors.New("e"))
	s.Walk(func(*Span) { t.Fatal("walk of nil span must not visit") })
	if s.Duration() != 0 || s.Attr("a") != "" {
		t.Fatal("nil span reads must be zero values")
	}
}

func TestWalkAndFind(t *testing.T) {
	ctx, root := Start(context.Background(), "app")
	actx, a := Start(ctx, "analyze")
	_, u := Start(actx, "unpack")
	u.End()
	_, d := Start(actx, "dynamic")
	d.End()
	a.End()
	root.End()

	var names []string
	root.Walk(func(s *Span) { names = append(names, s.Name) })
	want := []string{"app", "analyze", "unpack", "dynamic"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("walk order = %v, want %v", names, want)
	}
	if root.Find("dynamic") != d {
		t.Fatal("Find must locate nested spans")
	}
	if root.Find("missing") != nil {
		t.Fatal("Find of an absent name must return nil")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	mk := func(id, digest string) *Trace {
		tr := New("app", WithID(id), WithDigest(digest))
		_, c := Start(ContextWith(context.Background(), tr), "stage")
		c.SetAttr("k", "v")
		c.AddEvent("dcl", A("kind", "native"))
		c.EndErr(errors.New("stage failed"))
		tr.Root.End()
		return tr
	}
	t1, t2 := mk("aaaaaaaaaaaaaaaa", "ab12"), mk("bbbbbbbbbbbbbbbb", "cd34")

	var buf bytes.Buffer
	if err := EncodeJSONL(&buf, t1, nil, t2); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 2 {
		t.Fatalf("encoded %d lines, want 2 (nil skipped, one object per line)", got)
	}
	back, err := DecodeJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("decoded %d traces, want 2", len(back))
	}
	got := back[0]
	if got.ID != "aaaaaaaaaaaaaaaa" || got.Digest != "ab12" {
		t.Fatalf("identity lost: %+v", got)
	}
	st := got.Root.Find("stage")
	if st == nil || st.Err != "stage failed" || st.Attr("k") != "v" || len(st.Events) != 1 {
		t.Fatalf("span tree lost detail: %+v", st)
	}
	if st.Duration() <= 0 || got.Root.Duration() < st.Duration() {
		t.Fatal("timings must survive the round trip")
	}
}

func TestDecodeJSONLRejectsGarbage(t *testing.T) {
	if _, err := DecodeJSONL(strings.NewReader("{\n!!!\n")); err == nil {
		t.Fatal("want error for malformed line")
	}
	if _, err := DecodeJSONL(strings.NewReader(`{"id":"x"}` + "\n")); err == nil {
		t.Fatal("want error for a trace without a root span")
	}
}

func TestRender(t *testing.T) {
	tr := New("app", WithID("deadbeefdeadbeef"), WithDigest("ab12"))
	ctx := ContextWith(context.Background(), tr)
	_, u := Start(ctx, "unpack")
	u.End()
	_, d := Start(ctx, "dynamic")
	d.SetAttr("events", "1")
	d.AddEvent("dcl", A("kind", "dex"), A("entity", "own"))
	d.EndErr(errors.New("crashed"))
	tr.Root.End()

	var buf bytes.Buffer
	Render(&buf, tr)
	out := buf.String()
	for _, want := range []string{
		"trace deadbeefdeadbeef", "digest ab12",
		"app", "  unpack", "  dynamic", "events=1",
		"· dcl kind=dex entity=own", "ERROR: crashed", "%",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("render output missing %q:\n%s", want, out)
		}
	}
	Render(&buf, nil) // must not panic
}

func TestConcurrentSpanUse(t *testing.T) {
	ctx, root := Start(context.Background(), "app")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, s := Start(ctx, fmt.Sprintf("w%d", i))
			s.SetAttr("i", fmt.Sprint(i))
			s.AddEvent("tick")
			s.End()
			root.AddEvent("done")
		}(i)
	}
	wg.Wait()
	root.End()
	if len(root.Children) != 8 || len(root.Events) != 8 {
		t.Fatalf("children=%d events=%d, want 8/8", len(root.Children), len(root.Events))
	}
}

func TestParentRefRoundTrip(t *testing.T) {
	ref := ParentRef("abcd1234abcd1234", "ffee0011ffee0011")
	tr := New("scan")
	tr.Root.SetParent(ref)
	if got := tr.Root.Attr(AttrParentTrace); got != "abcd1234abcd1234" {
		t.Fatalf("parent.trace = %q", got)
	}
	if got := tr.Root.Attr(AttrParentSpan); got != "ffee0011ffee0011" {
		t.Fatalf("parent.span = %q", got)
	}
	// Malformed refs are ignored, never recorded half-parsed.
	for _, bad := range []string{"", "nocolon", ":leading", "trailing:"} {
		tr := New("scan")
		tr.Root.SetParent(bad)
		if tr.Root.Attr(AttrParentTrace) != "" || tr.Root.Attr(AttrParentSpan) != "" {
			t.Fatalf("ref %q recorded parent attrs", bad)
		}
	}
}

func TestIDFromDigest(t *testing.T) {
	if got := IDFromDigest("0123456789abcdef0123456789abcdef"); got != "0123456789abcdef" {
		t.Fatalf("IDFromDigest = %q", got)
	}
	if got := IDFromDigest("abc"); got != "abc" {
		t.Fatalf("short digest = %q", got)
	}
}

// TestGraftStitchesUnderMatchingSpan is the cross-process stitching
// contract: a remote tree whose root carries a parent.span reference is
// attached under exactly the span with that ID.
func TestGraftStitchesUnderMatchingSpan(t *testing.T) {
	route := New("route", WithID("r1"), WithDigest("ab12"))
	a1 := route.Root.child("attempt")
	a1.ID = NewID()
	a1.EndErr(errBoom{})
	a2 := route.Root.child("attempt")
	a2.ID = NewID()
	a2.End()
	route.Root.End()

	remote := New("scan")
	remote.Root.SetParent(ParentRef("r1", a2.ID))
	remote.Root.child("analyze").End()
	remote.Root.End()

	if !Graft(route, remote) {
		t.Fatal("Graft found no matching span")
	}
	if len(a2.Children) != 1 || a2.Children[0] != remote.Root {
		t.Fatalf("remote root not under the matching attempt: %+v", a2.Children)
	}
	if len(a1.Children) != 0 {
		t.Fatal("remote root grafted under the failed attempt")
	}
	// The stitched tree must survive the JSONL round trip with span IDs
	// and the grafted subtree intact.
	var buf strings.Builder
	if err := EncodeJSONL(&buf, route); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeJSONL(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got := back[0].Root.Find("analyze"); got == nil {
		t.Fatal("grafted analyze span lost in round trip")
	}
	var ids []string
	back[0].Root.Walk(func(sp *Span) {
		if sp.ID != "" {
			ids = append(ids, sp.ID)
		}
	})
	if len(ids) != 2 {
		t.Fatalf("span IDs lost in round trip: %v", ids)
	}
}

// TestGraftFallsBackToRoot: a remote tree with no usable parent reference
// still lands in the stitched tree, under the root.
func TestGraftFallsBackToRoot(t *testing.T) {
	route := New("route")
	a := route.Root.child("attempt")
	a.ID = NewID()
	remote := New("scan")
	if Graft(route, remote) {
		t.Fatal("Graft reported a match without a parent ref")
	}
	last := route.Root.Children[len(route.Root.Children)-1]
	if last != remote.Root {
		t.Fatal("unreferenced remote root not appended under the route root")
	}
	if Graft(nil, remote) || Graft(route, nil) {
		t.Fatal("nil graft reported a match")
	}
}

type errBoom struct{}

func (errBoom) Error() string { return "boom" }
