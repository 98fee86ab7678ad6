package service

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"time"

	"github.com/dydroid/dydroid/internal/profile"
	"github.com/dydroid/dydroid/internal/telemetry"
)

// handleProfiles serves the profile ring's index, newest first — the
// same rows `apkinspect profile` renders and the coordinator federates
// across members.
func (s *Server) handleProfiles(w http.ResponseWriter, r *http.Request) {
	metas := s.cfg.Profiles.Index()
	if metas == nil {
		metas = []profile.Meta{}
	}
	writeJSON(w, http.StatusOK, metas)
}

// handleProfile serves one captured window (see profile.WriteWindow).
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	win := s.cfg.Profiles.Get(r.PathValue("id"))
	if win == nil {
		httpError(w, http.StatusNotFound, "unknown profile window")
		return
	}
	profile.WriteWindow(w, r, win)
}

// sloTriggers fires the SLO-alert capture path: every objective whose
// burn-rate alert is firing at now requests a window tagged with the
// analysis that tipped it. The recorder's per-trigger cooldown keeps a
// sustained burn from monopolizing the ring.
func (s *Server) sloTriggers(digest string) {
	if s.cfg.Profiles == nil {
		return
	}
	for _, rep := range s.cfg.Fleet.SLOReports(s.now()) {
		if rep.Alert == telemetry.AlertOK {
			continue
		}
		s.cfg.Profiles.TryTrigger(profile.TriggerSLOPrefix+rep.Name, digest, TraceID(digest))
	}
}

// writeCostProm appends the per-stage resource-attribution gauges to a
// Prometheus exposition, one labelled series per metered pipeline stage.
func writeCostProm(w io.Writer, snap *telemetry.Snapshot) {
	costs := snap.Costs
	if len(costs) == 0 {
		return
	}
	names := make([]string, 0, len(costs))
	for name := range costs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, g := range []struct {
		metric string
		value  func(*telemetry.StageCost) int64
	}{
		{"dydroid_stage_cost_spans", func(c *telemetry.StageCost) int64 { return c.Count }},
		{"dydroid_stage_cost_cpu_seconds", nil}, // rendered as float below
		{"dydroid_stage_cost_alloc_bytes", func(c *telemetry.StageCost) int64 { return c.AllocBytes }},
		{"dydroid_stage_cost_alloc_objects", func(c *telemetry.StageCost) int64 { return c.AllocObjects }},
	} {
		fmt.Fprintf(w, "# TYPE %s gauge\n", g.metric)
		for _, name := range names {
			c := costs[name]
			if g.value == nil {
				fmt.Fprintf(w, "%s{stage=%q} %g\n", g.metric, name,
					float64(c.CPUNS)/float64(time.Second))
				continue
			}
			fmt.Fprintf(w, "%s{stage=%q} %d\n", g.metric, name, g.value(c))
		}
	}
}

// profileTiles summarizes the recorder for the dashboard header tiles:
// retained window count plus the newest window's trigger and hottest
// function.
func (s *Server) profileTiles() []telemetry.KV {
	metas := s.cfg.Profiles.Index()
	if len(metas) == 0 {
		return nil
	}
	tiles := []telemetry.KV{
		{Key: "profile windows", Value: strconv.Itoa(len(metas))},
	}
	newest := metas[0]
	tiles = append(tiles, telemetry.KV{Key: "last profile", Value: newest.Trigger})
	if newest.TopFunc != "" {
		tiles = append(tiles, telemetry.KV{Key: "hottest function", Value: newest.TopFunc})
	}
	return tiles
}
