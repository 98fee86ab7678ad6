package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/dydroid/dydroid/internal/core"
	"github.com/dydroid/dydroid/internal/events"
	"github.com/dydroid/dydroid/internal/metrics"
	"github.com/dydroid/dydroid/internal/profile"
	"github.com/dydroid/dydroid/internal/service"
)

// profiledWorker boots a genuine vetting daemon with a live profile
// recorder and a nanosecond slow deadline, so any real analysis trips
// the watchdog and captures a window.
func profiledWorker(t *testing.T, name string) (*service.Server, *httptest.Server, *profile.Recorder) {
	t.Helper()
	journal := events.NewJournal(0)
	rec := profile.New(profile.Options{
		Node:      name,
		WindowDur: 20 * time.Millisecond,
		Cooldown:  time.Minute,
		Journal:   journal,
		Metrics:   metrics.New(),
	})
	s, err := service.New(service.Config{
		Analyzer:     core.NewAnalyzer(core.Options{Seed: 1}),
		Workers:      1,
		Metrics:      metrics.New(),
		SlowDeadline: time.Nanosecond,
		Journal:      journal,
		Profiles:     rec,
		Node:         name,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts, rec
}

func getProfiles(t *testing.T, base string) ProfilesResponse {
	t.Helper()
	resp, err := http.Get(base + "/v1/profiles")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/profiles: %d", resp.StatusCode)
	}
	var pr ProfilesResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	return pr
}

// TestFederatedProfileCapture is the cross-node acceptance path: a scan
// routed through the coordinator trips the worker's slow-analysis
// watchdog, which captures a profile window tagged with the offending
// digest and journals it; the coordinator's federated /v1/profiles
// indexes the window under the member's name and /v1/profiles/{id}
// relays the raw pprof bytes with node provenance.
func TestFederatedProfileCapture(t *testing.T) {
	_, tsA, _ := profiledWorker(t, "workerA")
	_, tsB, _ := profiledWorker(t, "workerB")

	// The coordinator's own ring stays empty until the end of the test.
	coordRec := profile.New(profile.Options{Node: "coordinator", WindowDur: 20 * time.Millisecond})
	coord, err := New(Config{
		Nodes:         []string{tsA.URL, tsB.URL},
		ProbeInterval: time.Hour,
		Metrics:       metrics.New(),
		Profiles:      coordRec,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	cts := httptest.NewServer(coord.Handler())
	t.Cleanup(cts.Close)

	apkBytes := tinyAPK(t, "com.fed.profile")
	digests := scanAll(t, cts.URL, [][]byte{apkBytes})
	awaitAll(t, cts.URL, digests)
	digest := digests[0]

	// The watchdog capture runs async; poll the federated index until a
	// watchdog window tagged with the digest appears.
	var meta profile.Meta
	deadline := time.Now().Add(10 * time.Second)
	for {
		pr := getProfiles(t, cts.URL)
		found := false
		for _, m := range pr.Windows {
			if m.Trigger == profile.TriggerWatchdog && m.Digest == digest {
				meta, found = m, true
			}
		}
		if found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no watchdog window for %s in federated index: %+v", digest, pr.Windows)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if meta.Node != tsA.URL && meta.Node != tsB.URL {
		t.Fatalf("federated window node = %q, want a configured member name", meta.Node)
	}

	// The journaled capture federates with the member journals.
	evs := fetchClusterEvents(t, cts.URL)
	var captured *events.Event
	for i, e := range evs {
		if e.Type == events.ProfileCaptured && e.Digest == digest {
			captured = &evs[i]
		}
	}
	if captured == nil {
		t.Fatalf("no federated profile-captured event: %+v", evs)
	}
	if !strings.Contains(captured.Detail, meta.ID) {
		t.Fatalf("profile-captured detail = %q, want window %s", captured.Detail, meta.ID)
	}

	// Download through the coordinator, pinned to the holding node: the
	// full window first, then the raw pprof bytes, which must parse.
	resp, err := http.Get(cts.URL + "/v1/profiles/" + meta.ID + "?node=" + meta.Node)
	if err != nil {
		t.Fatal(err)
	}
	var win profile.Window
	if err := json.NewDecoder(resp.Body).Decode(&win); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Dydroid-Node"); got != meta.Node {
		t.Fatalf("X-Dydroid-Node = %q, want %q", got, meta.Node)
	}
	if win.Digest != digest || win.Trigger != profile.TriggerWatchdog {
		t.Fatalf("window = trigger=%q digest=%q", win.Trigger, win.Digest)
	}

	resp, err = http.Get(cts.URL + "/v1/profiles/" + meta.ID + "?node=" + meta.Node + "&format=pprof")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof download: %d %s", resp.StatusCode, raw)
	}
	if _, err := profile.ParseCPUProfile(raw, 5); err != nil {
		t.Fatalf("federated pprof bytes do not parse: %v", err)
	}
	if got, want := resp.Header.Get("Content-Disposition"), downloadName(meta.ID); got != want {
		t.Fatalf("relayed Content-Disposition = %q, want %q", got, want)
	}

	// CI keeps the captured window and its rendered top-functions table
	// as artifacts — the same hook pattern the cluster status and trace
	// tests use.
	if path := os.Getenv("PROFILE_SUMMARY_ARTIFACT"); path != "" {
		raw, err := json.MarshalIndent(win, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatalf("write profile summary artifact: %v", err)
		}
	}
	if path := os.Getenv("PROFILE_TOP_ARTIFACT"); path != "" {
		var buf strings.Builder
		profile.RenderTop(&buf, &win, 20)
		if err := os.WriteFile(path, []byte(buf.String()), 0o644); err != nil {
			t.Fatalf("write profile top artifact: %v", err)
		}
	}

	// Unpinned fetch walks the members and still finds the window.
	resp, err = http.Get(cts.URL + "/v1/profiles/" + meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unpinned window fetch: %d", resp.StatusCode)
	}

	// Misses answer 404: unknown window everywhere, and an unknown pin.
	for _, path := range []string{"/v1/profiles/w999999", "/v1/profiles/" + meta.ID + "?node=nosuch"} {
		resp, err := http.Get(cts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}

	// The coordinator's own window downloads exactly like a worker's. The
	// CPU profiler is process-global, so retry while a worker's trailing
	// capture holds it.
	var own *profile.Window
	for i := 0; i < 50 && (own == nil || len(own.Pprof) == 0); i++ {
		own = coordRec.Capture(profile.TriggerSampler, "", "")
	}
	if len(own.Pprof) == 0 {
		t.Fatalf("coordinator capture produced no pprof bytes: %s", own.Err)
	}
	resp, err = http.Get(cts.URL + "/v1/profiles/" + own.ID + "?node=coordinator&format=pprof")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(raw, own.Pprof) {
		t.Fatalf("coordinator pprof download: %d, %d bytes, want %d", resp.StatusCode, len(raw), len(own.Pprof))
	}
	if got := resp.Header.Get("X-Dydroid-Node"); got != "coordinator" {
		t.Fatalf("coordinator window X-Dydroid-Node = %q", got)
	}
	if got, want := resp.Header.Get("Content-Disposition"), downloadName(own.ID); got != want {
		t.Fatalf("coordinator Content-Disposition = %q, want %q", got, want)
	}
}

// downloadName is the Content-Disposition a raw pprof window download
// carries.
func downloadName(id string) string {
	return fmt.Sprintf("attachment; filename=%q", id+".pb.gz")
}

// TestCoordinatorMetriczAndPprof: the coordinator exposes its own
// metrics registry and runtime pprof surface, like its workers.
func TestCoordinatorMetriczAndPprof(t *testing.T) {
	n := newStubNode(t)
	_, cts, reg := newTestCoordinator(t, Config{ProbeInterval: time.Hour}, n)
	reg.Add("cluster.scan.requests", 3)

	resp, err := http.Get(cts.URL + "/v1/metricz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "cluster.scan.requests") {
		t.Fatalf("metricz = %d\n%s", resp.StatusCode, body)
	}

	resp, err = http.Get(cts.URL + "/v1/metricz?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "dydroid_cluster_scan_requests_total") {
		t.Fatalf("prom metricz missing counter:\n%s", body)
	}

	resp, err = http.Get(cts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Fatalf("pprof index = %d\n%.200s", resp.StatusCode, body)
	}
}
