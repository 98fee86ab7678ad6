package experiments

import (
	"encoding/json"
	"errors"

	"github.com/dydroid/dydroid/internal/apk"
	"github.com/dydroid/dydroid/internal/core"
	"github.com/dydroid/dydroid/internal/corpus"
	"github.com/dydroid/dydroid/internal/metrics"
	"github.com/dydroid/dydroid/internal/resultstore"
)

// WarmVersion stamps warm-start records; open the result store passed to
// Config.Warm with this version so runner format changes invalidate old
// entries.
const WarmVersion = 2

// warmRecord is the serialized form of one AppRecord in the warm-start
// store. Seed and MonkeyEvents travel with the record: a cache built
// under one fuzzing configuration is a miss under another, since the
// digest only addresses the APK contents.
type warmRecord struct {
	Seed         int64                                 `json:"seed"`
	MonkeyEvents int                                   `json:"monkey_events"`
	Meta         corpus.Metadata                       `json:"meta"`
	Result       *core.AppResult                       `json:"result"`
	ReplayLoaded map[core.ReplayConfig]map[string]bool `json:"replay_loaded,omitempty"`
	MalwarePaths map[string]bool                       `json:"malware_paths,omitempty"`
}

// warmDigest computes the content address of one store app. The archive
// build is deterministic, so the digest is stable across runs.
func warmDigest(store *corpus.Store, app *corpus.StoreApp) (string, error) {
	data, err := store.BuildAPK(app)
	if err != nil {
		return "", err
	}
	return apk.SigningDigest(data)
}

// warmLookup consults the warm store for a previously analyzed app.
// Every failure mode — no digest, miss, stale version, configuration
// mismatch, undecodable record — degrades to a plain miss so a warm run
// never fails where a cold one would succeed.
func warmLookup(ws *resultstore.Store, cfg Config, store *corpus.Store, app *corpus.StoreApp, reg *metrics.Registry) (*AppRecord, string) {
	digest, err := warmDigest(store, app)
	if err != nil {
		reg.Add("warm.errors", 1)
		return nil, ""
	}
	raw, err := ws.Get(digest)
	if err != nil {
		if !errors.Is(err, resultstore.ErrNotFound) {
			reg.Add("warm.errors", 1)
		}
		reg.Add("warm.misses", 1)
		return nil, digest
	}
	var wr warmRecord
	if err := json.Unmarshal(raw, &wr); err != nil || wr.Result == nil ||
		wr.Seed != cfg.Seed || wr.MonkeyEvents != cfg.MonkeyEvents {
		reg.Add("warm.misses", 1)
		return nil, digest
	}
	reg.Add("warm.hits", 1)
	return &AppRecord{
		Meta:         wr.Meta,
		Result:       wr.Result,
		ReplayLoaded: wr.ReplayLoaded,
		MalwarePaths: wr.MalwarePaths,
	}, digest
}

// warmSave stores a freshly analyzed record. Failure records are never
// cached — the next run should retry them — and store errors only count,
// they never fail the run.
func warmSave(ws *resultstore.Store, cfg Config, digest string, rec *AppRecord, reg *metrics.Registry) {
	if digest == "" || rec == nil || rec.Err != nil {
		return
	}
	raw, err := json.Marshal(warmRecord{
		Seed:         cfg.Seed,
		MonkeyEvents: cfg.MonkeyEvents,
		Meta:         rec.Meta,
		Result:       rec.Result,
		ReplayLoaded: rec.ReplayLoaded,
		MalwarePaths: rec.MalwarePaths,
	})
	if err == nil {
		err = ws.Put(digest, raw)
	}
	if err != nil {
		reg.Add("warm.errors", 1)
		return
	}
	reg.Add("warm.stores", 1)
}
