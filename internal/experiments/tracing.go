package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"github.com/dydroid/dydroid/internal/telemetry"
	"github.com/dydroid/dydroid/internal/trace"
)

// slowTraces returns the retained span trees of the apps the fleet
// snapshot ranks slowest (Fleet.SlowestApps), slowest first. The fleet
// ranking is the only one: this just looks its entries up in Records.
func (r *Results) slowTraces() []*trace.Trace {
	rank := make(map[telemetry.SlowApp]int, len(r.Fleet.SlowestApps.Entries))
	for i, e := range r.Fleet.SlowestApps.Entries {
		rank[e] = i
	}
	found := make([]*trace.Trace, len(rank))
	for _, rec := range r.Records {
		if rec == nil || rec.Result == nil || rec.Result.Trace == nil {
			continue
		}
		tr := rec.Result.Trace
		key := telemetry.SlowApp{Package: rec.Result.Package, Digest: tr.Digest, NS: int64(tr.Root.Duration())}
		if i, ok := rank[key]; ok {
			found[i] = tr
		}
	}
	out := found[:0]
	for _, tr := range found {
		if tr != nil {
			out = append(out, tr)
		}
	}
	return out
}

// writeTraceDir persists the run's observability artifacts: the slowest
// apps' traces as JSONL, the RunStats block as JSON, and the shard's
// mergeable fleet snapshot (fleet.json).
func writeTraceDir(dir string, res *Results) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("experiments: trace dir: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, "traces.jsonl"))
	if err != nil {
		return fmt.Errorf("experiments: trace dir: %w", err)
	}
	for _, tr := range res.slowTraces() {
		if err := trace.EncodeJSONL(f, tr); err != nil {
			f.Close()
			return fmt.Errorf("experiments: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("experiments: trace dir: %w", err)
	}
	raw, err := json.MarshalIndent(res.RunStats, "", "  ")
	if err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "runstats.json"), raw, 0o644); err != nil {
		return fmt.Errorf("experiments: trace dir: %w", err)
	}
	if err := res.Fleet.WriteFile(filepath.Join(dir, "fleet.json")); err != nil {
		return fmt.Errorf("experiments: trace dir: %w", err)
	}
	return nil
}
