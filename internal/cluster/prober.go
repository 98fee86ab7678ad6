package cluster

import (
	"context"
	"time"
)

// nodeHealth is the slice of a worker's /v1/healthz body the coordinator
// acts on.
type nodeHealth struct {
	Status     string `json:"status"`
	QueueLen   int    `json:"queue_len"`
	QueueDepth int    `json:"queue_depth"`
	Inflight   int    `json:"inflight"`
	// Degraded is the worker's own queue-saturation signal (≥80% full):
	// the prober deprioritizes a degraded node for new scans before it
	// starts answering 429.
	Degraded bool `json:"degraded"`
}

// probeLoop drives the membership lifecycle: every ProbeInterval each
// member is probed at /v1/healthz; K consecutive failures eject it from
// the ring, a success on an ejected member rejoins it.
func (c *Coordinator) probeLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-t.C:
			c.probeAll()
		}
	}
}

// nodeVersion is a worker's /v1/version body.
type nodeVersion struct {
	SnapshotVersion int `json:"snapshot_version"`
}

// probeAll probes every member once. Network I/O happens outside the
// membership lock; state transitions inside it.
func (c *Coordinator) probeAll() {
	for _, m := range c.memberList() {
		h, err := probe[nodeHealth](c, m.baseURL, "/v1/healthz")
		var ver int
		if err == nil {
			c.mu.Lock()
			known := m.snapshotVersion
			c.mu.Unlock()
			if known == 0 {
				// First contact (or first since recovery — version resets on
				// eject): record the node's snapshot format for the status view.
				if v, verr := probe[nodeVersion](c, m.baseURL, "/v1/version"); verr == nil {
					ver = v.SnapshotVersion
				}
			}
		}
		c.mu.Lock()
		if err != nil {
			m.fails++
			m.lastErr = err.Error()
			if m.inRing && m.fails >= c.cfg.ProbeFailures {
				c.ejectLocked(m, "probe failures")
			}
			c.mu.Unlock()
			c.reg.Add("cluster.probe.failures", 1)
			continue
		}
		m.fails = 0
		m.lastErr = ""
		m.degraded = h.Degraded
		m.draining = h.Status == "draining"
		m.queueLen = h.QueueLen
		m.queueDepth = h.QueueDepth
		m.inflight = h.Inflight
		if ver != 0 {
			m.snapshotVersion = ver
		}
		if !m.inRing {
			c.rejoinLocked(m)
		}
		c.mu.Unlock()
		c.reg.Add("cluster.probe.ok", 1)
	}
}

// probe GETs one small JSON status body from a member, bounded in time
// by the probe interval and in size by maxProbeBody.
func probe[T any](c *Coordinator, base, path string) (T, error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeInterval)
	defer cancel()
	return getOK(c, ctx, base, path, maxProbeBody, decodeJSON[T])
}
