package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"

	"github.com/dydroid/dydroid/internal/events"
	"github.com/dydroid/dydroid/internal/stats"
	"github.com/dydroid/dydroid/internal/telemetry"
)

// FleetResponse is the coordinator's federated GET /v1/fleet body: the
// telemetry.Merge of every reachable node's snapshot, with partial
// coverage made explicit. A node that cannot be fetched mid-merge never
// fails the request and never hides — it is counted and named in
// NodesMissing/Missing so a report over survivors is distinguishable
// from a full-fleet report.
type FleetResponse struct {
	// Nodes is the configured member count (ring membership does not
	// matter here: an ejected node that still answers contributes).
	Nodes int `json:"nodes"`
	// NodesMissing counts members whose snapshot could not be fetched or
	// merged.
	NodesMissing int `json:"nodes_missing"`
	// Missing names them.
	Missing []string `json:"missing,omitempty"`
	// Snapshot is the merged fleet aggregate of the responding nodes.
	// Its Shards field counts the contributing nodes.
	Snapshot *telemetry.Snapshot `json:"snapshot"`
}

// handleFleet federates the fleet telemetry: every configured node's
// /v1/fleet snapshot is fetched concurrently and folded with
// telemetry.Merge — the same associative merge the shard property tests
// prove byte-stable, so a cluster-wide MeasurementReport reproduces the
// single-node report of the same corpus.
func (c *Coordinator) handleFleet(w http.ResponseWriter, r *http.Request) {
	results := federate(c, r.Context(), "/v1/fleet", maxBody, decodeJSON[*telemetry.Snapshot])
	merged := telemetry.NewSnapshot(0, 0, 0)
	merged.Shards = 0
	var missing []string
	for _, f := range results {
		if f.err == nil {
			f.err = telemetry.Merge(merged, f.val)
		}
		if f.err != nil {
			missing = append(missing, f.name)
			c.reg.Add("cluster.fleet.missing", 1)
		}
	}
	if len(missing) > 0 {
		c.reg.Add("cluster.fleet.partial", 1)
	}
	// The coordinator's own lifecycle events (ejections, failovers) join
	// the members' journals in the federated timeline.
	merged.Events.Merge(c.cfg.Journal.Log())
	writeJSON(w, http.StatusOK, FleetResponse{
		Nodes:        len(results),
		NodesMissing: len(missing),
		Missing:      missing,
		Snapshot:     merged,
	})
}

// handleEvents federates the ops timeline: every member's /v1/events
// JSONL is fetched concurrently and merged with the coordinator's own
// journal into one bounded newest-first log, served back as JSONL. The
// merge dedups identical entries, so refetching a member (or a member
// appearing in several coordinators' views) never duplicates history.
func (c *Coordinator) handleEvents(w http.ResponseWriter, r *http.Request) {
	merged := c.cfg.Journal.Log()
	for _, f := range federate(c, r.Context(), "/v1/events", maxIndexBody, events.DecodeJSONL) {
		// A dead node contributes nothing; its ejection is in our own journal.
		if f.err == nil {
			merged.Merge(events.Log{K: events.DefaultCap, Entries: f.val})
		}
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	events.EncodeJSONL(w, merged.Entries)
}

// NodeStatus is one worker's row in the cluster status view.
type NodeStatus struct {
	Node    string `json:"node"`
	Healthy bool   `json:"healthy"`
	// Degraded mirrors the node's own queue-saturation healthz signal.
	Degraded bool `json:"degraded,omitempty"`
	Draining bool `json:"draining,omitempty"`
	// Failures is the current consecutive probe/forward failure streak.
	Failures   int    `json:"consecutive_failures,omitempty"`
	LastError  string `json:"last_error,omitempty"`
	QueueLen   int    `json:"queue_len"`
	QueueDepth int    `json:"queue_depth"`
	Inflight   int    `json:"inflight"`
	// RingShare is the node's fraction of the hash space (0 while
	// ejected).
	RingShare float64 `json:"ring_share"`
	// SnapshotVersion is the fleet-snapshot format the node reported (0
	// until first contact).
	SnapshotVersion int   `json:"snapshot_version"`
	Ejections       int64 `json:"ejections,omitempty"`
}

// StatusResponse is the GET /v1/cluster/status body.
type StatusResponse struct {
	Nodes     int          `json:"nodes"`
	NodesLive int          `json:"nodes_live"`
	Members   []NodeStatus `json:"members"`
}

// handleStatus serves the coordinator's membership view: per-node
// health, saturation, ring ownership share and snapshot version — the
// body `apkinspect cluster status` renders.
func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.Status())
}

// Status assembles the current membership view.
func (c *Coordinator) Status() StatusResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	shares := c.ring.Shares()
	st := StatusResponse{Nodes: len(c.members), NodesLive: c.ring.Len()}
	for _, m := range c.members {
		st.Members = append(st.Members, NodeStatus{
			Node:            m.name,
			Healthy:         m.inRing,
			Degraded:        m.degraded,
			Draining:        m.draining,
			Failures:        m.fails,
			LastError:       m.lastErr,
			QueueLen:        m.queueLen,
			QueueDepth:      m.queueDepth,
			Inflight:        m.inflight,
			RingShare:       shares[m.name],
			SnapshotVersion: m.snapshotVersion,
			Ejections:       m.ejections,
		})
	}
	sort.Slice(st.Members, func(i, j int) bool { return st.Members[i].Node < st.Members[j].Node })
	return st
}

// RenderStatus writes the status view as an aligned table — shared by
// `apkinspect cluster status` and the CI artifact of the multi-process
// equivalence test.
func RenderStatus(w io.Writer, st StatusResponse) {
	fmt.Fprintf(w, "cluster: %d/%d nodes live\n\n", st.NodesLive, st.Nodes)
	t := stats.NewTable("Cluster nodes", "node", "health", "share", "queue", "inflight", "snapver", "fails", "last error")
	for _, m := range st.Members {
		health := "ok"
		switch {
		case !m.Healthy:
			health = "down"
		case m.Draining:
			health = "draining"
		case m.Degraded:
			health = "degraded"
		}
		lastErr := m.LastError
		if lastErr == "" {
			lastErr = "-"
		}
		t.Row(m.Node, health,
			fmt.Sprintf("%.1f%%", m.RingShare*100),
			fmt.Sprintf("%d/%d", m.QueueLen, m.QueueDepth),
			m.Inflight, m.SnapshotVersion, m.Failures, lastErr)
	}
	io.WriteString(w, t.String())
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
