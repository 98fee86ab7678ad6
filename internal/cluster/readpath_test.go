package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/dydroid/dydroid/internal/events"
	"github.com/dydroid/dydroid/internal/profile"
)

// readPathDigest is a digest no node has seen.
const readPathDigest = "feedfacefeedfacefeedfacefeedface"

// getError GETs url and returns the status code and the {"error": …}
// message of the answer.
func getError(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("GET %s: content-type %q, want application/json", url, ct)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("GET %s: decode error body: %v", url, err)
	}
	return resp.StatusCode, body.Error
}

// lastSorted returns the member a name-ordered walk tries last.
func lastSorted(nodes ...*stubNode) string {
	names := make([]string, len(nodes))
	for i, n := range nodes {
		names[i] = n.name()
	}
	sort.Strings(names)
	return names[len(names)-1]
}

// TestReadPathsAllCandidatesUnreachable pins the answer when every node a
// read could try refuses connections: 502 naming the last transport
// error, which is the last candidate in ring order for digest reads and
// the last member in name order for window reads.
func TestReadPathsAllCandidatesUnreachable(t *testing.T) {
	a, b := newStubNode(t), newStubNode(t)
	_, ts, _ := newTestCoordinator(t,
		Config{ProbeInterval: time.Hour, ProbeFailures: 100, MaxAttempts: 2}, a, b)
	lastCand := expectedRing(a, b).Successors(readPathDigest, 2)[1]
	a.ts.Close()
	b.ts.Close()

	for _, tc := range []struct{ path, prefix string }{
		{"/v1/result/" + readPathDigest,
			fmt.Sprintf("no reachable node for digest: Get %q: ", lastCand+"/v1/result/"+readPathDigest)},
		{"/v1/trace/" + readPathDigest,
			fmt.Sprintf("no reachable node for digest: Get %q: ", lastCand+"/v1/trace/"+readPathDigest)},
		{"/v1/profiles/w000001",
			fmt.Sprintf("no reachable node for window: Get %q: ", lastSorted(a, b)+"/v1/profiles/w000001")},
	} {
		code, msg := getError(t, ts.URL+tc.path)
		if code != http.StatusBadGateway || !strings.HasPrefix(msg, tc.prefix) {
			t.Errorf("GET %s = %d %q, want 502 %q…", tc.path, code, msg, tc.prefix)
		}
	}
}

// TestReadPathsEveryNodeMisses pins the 404 answers: when every node
// that answers says 404 — with or without an unreachable node in the
// walk — the read is a 404, never a 502.
func TestReadPathsEveryNodeMisses(t *testing.T) {
	a, b := newStubNode(t), newStubNode(t)
	_, ts, _ := newTestCoordinator(t,
		Config{ProbeInterval: time.Hour, ProbeFailures: 100, MaxAttempts: 2}, a, b)

	cases := []struct{ path, want string }{
		{"/v1/result/" + readPathDigest, "unknown digest"},
		{"/v1/trace/" + readPathDigest, "unknown digest"},
		{"/v1/profiles/w000001", "unknown profile window"},
		{"/v1/profiles/w000001?node=nosuch", "unknown node: nosuch"},
		{"/v1/profiles/w000001?node=coordinator", "unknown profile window"},
	}
	check := func(stage string) {
		for _, tc := range cases {
			code, msg := getError(t, ts.URL+tc.path)
			if code != http.StatusNotFound || msg != tc.want {
				t.Errorf("%s: GET %s = %d %q, want 404 %q", stage, tc.path, code, msg, tc.want)
			}
		}
	}
	check("all nodes up")
	a.ts.Close()
	check("one node unreachable")
}

// TestReadPathsNoLiveNode pins the answers once every member is ejected
// from the ring: digest reads have no candidate and answer 503, while a
// window read still walks every configured member and reports the
// transport failure as 502.
func TestReadPathsNoLiveNode(t *testing.T) {
	a, b := newStubNode(t), newStubNode(t)
	coord, ts, _ := newTestCoordinator(t,
		Config{ProbeInterval: 10 * time.Millisecond, ProbeFailures: 1}, a, b)
	a.ts.Close()
	b.ts.Close()
	waitFor(t, "every node ejected", func() bool { return coord.Status().NodesLive == 0 })

	for _, path := range []string{"/v1/result/" + readPathDigest, "/v1/trace/" + readPathDigest} {
		code, msg := getError(t, ts.URL+path)
		if code != http.StatusServiceUnavailable || msg != "no live nodes in ring" {
			t.Errorf("GET %s = %d %q, want 503 %q", path, code, msg, "no live nodes in ring")
		}
	}
	prefix := fmt.Sprintf("no reachable node for window: Get %q: ", lastSorted(a, b)+"/v1/profiles/w000001")
	code, msg := getError(t, ts.URL+"/v1/profiles/w000001")
	if code != http.StatusBadGateway || !strings.HasPrefix(msg, prefix) {
		t.Errorf("GET /v1/profiles/w000001 = %d %q, want 502 %q…", code, msg, prefix)
	}
}

// TestReadWalkClientGone: a read whose client has gone away stops
// walking and counts nothing against the nodes it could not reach.
func TestReadWalkClientGone(t *testing.T) {
	a, b := newStubNode(t), newStubNode(t)
	coord, _, _ := newTestCoordinator(t,
		Config{ProbeInterval: time.Hour, ProbeFailures: 1, MaxAttempts: 2}, a, b)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	served, err := coord.walk(ctx, coord.candidates(readPathDigest), "/v1/result/"+readPathDigest, maxBody,
		func(*member, *http.Response) bool { return true })
	if served || err == nil {
		t.Fatalf("walk under a canceled context = %v, %v; want no answer and an error", served, err)
	}
	for _, n := range []*stubNode{a, b} {
		if st := nodeStatus(coord, n.name()); !st.Healthy || st.Failures != 0 {
			t.Fatalf("client cancellation counted against %s: %+v", n.name(), st)
		}
	}
}

// federatedWorker fakes the two federated index endpoints of a worker.
func federatedWorker(t *testing.T, evs []events.Event, metas []profile.Meta) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		events.EncodeJSONL(w, evs)
	})
	mux.HandleFunc("GET /v1/profiles", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(metas)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestFederationWithDeadMember: with one member dead, /v1/events still
// serves the survivor's journal merged with the coordinator's own, and
// /v1/profiles serves the survivor's windows while naming the dead
// member in missing.
func TestFederationWithDeadMember(t *testing.T) {
	at := time.Date(2026, 8, 1, 10, 0, 0, 0, time.UTC)
	live := federatedWorker(t,
		[]events.Event{{Time: at, Type: events.SlowAnalysis, Node: "live", Digest: "d1"}},
		[]profile.Meta{{ID: "w000001", Trigger: profile.TriggerSampler, StartAt: at}})
	dead := federatedWorker(t,
		[]events.Event{{Time: at, Type: events.SlowAnalysis, Node: "dead", Digest: "d2"}},
		[]profile.Meta{{ID: "w000002", Trigger: profile.TriggerSampler, StartAt: at}})
	journal := events.NewJournal(0)
	journal.Record(events.Event{Time: at.Add(time.Minute), Type: events.ScanFailover, Node: "coord", Digest: "d3"})
	coord, err := New(Config{
		Nodes:         []string{live.URL, dead.URL},
		ProbeInterval: time.Hour,
		Journal:       journal,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	cts := httptest.NewServer(coord.Handler())
	t.Cleanup(cts.Close)
	dead.Close()

	evs := fetchClusterEvents(t, cts.URL)
	var got []string
	for _, e := range evs {
		got = append(got, string(e.Type)+"/"+e.Digest)
	}
	if want := []string{"scan-failover/d3", "slow-analysis/d1"}; strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("federated events = %v, want %v", got, want)
	}

	pr := getProfiles(t, cts.URL)
	if pr.Nodes != 2 || pr.NodesMissing != 1 || len(pr.Missing) != 1 || pr.Missing[0] != dead.URL {
		t.Fatalf("profiles coverage = nodes %d missing %d %v, want the dead member named",
			pr.Nodes, pr.NodesMissing, pr.Missing)
	}
	if len(pr.Windows) != 1 || pr.Windows[0].ID != "w000001" || pr.Windows[0].Node != live.URL {
		t.Fatalf("profiles windows = %+v, want the survivor's window", pr.Windows)
	}
}

// TestOversizedHealthzFailsProbe: a worker whose /v1/healthz streams a
// body far above the probe bound is a failed probe. Its claims are not
// trusted, and enough such probes eject it like any other failure.
func TestOversizedHealthzFailsProbe(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"status":"ok","degraded":true,"queue_depth":64,"pad":"%s"}`, strings.Repeat("x", 1<<20))
	})
	bloated := httptest.NewServer(mux)
	t.Cleanup(bloated.Close)

	coord, err := New(Config{
		Nodes:         []string{bloated.URL},
		ProbeInterval: 100 * time.Millisecond,
		ProbeFailures: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	waitFor(t, "oversized-healthz node ejected", func() bool { return !nodeStatus(coord, bloated.URL).Healthy })
	if st := nodeStatus(coord, bloated.URL); st.Degraded || st.QueueDepth != 0 || st.LastError == "" {
		t.Fatalf("oversized healthz body was trusted: %+v", st)
	}
}
