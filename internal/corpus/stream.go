package corpus

import "context"

// AppStream is the streaming form of a generated marketplace. Store
// carries everything except the app list — the payload network, the
// shared payload cache behind BuildAPK / TrainingSet, the companion apps
// behind SetupDevice —
// with Store.Apps nil; the apps arrive on Apps() instead, in generation
// order, and each one is released by the producer once consumed so a
// full-scale run never retains the whole population.
type AppStream struct {
	Store *Store
	// Total is the number of apps the stream yields when not cancelled.
	Total int
	ch    chan *StoreApp
}

// Apps is the receive side of the stream. The channel is closed after
// the last app, or early when the Stream context is cancelled — check
// ctx.Err() after drain to tell the two apart.
func (s *AppStream) Apps() <-chan *StoreApp { return s.ch }

// Stream generates the marketplace as a bounded producer instead of a
// materialized store. The plan phase (spec construction and the
// population-wide assignment passes) runs before Stream returns — it is
// cheap, O(apps) small structs — while the expensive per-app work stays
// where Generate already left it: in BuildAPK, invoked lazily by
// consumers, so archive generation overlaps analysis across the
// buffered channel.
//
// Deterministic: the i-th app yielded is the same *StoreApp (specs,
// per-index-seeded metadata, Index) that Generate's store.Apps[i] holds
// at the same Config, so a streamed run is byte-identical to a
// materialized one.
func Stream(ctx context.Context, cfg Config, buffer int) (*AppStream, error) {
	if buffer <= 0 {
		buffer = 64
	}
	st, err := GenerateContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	apps := st.Apps
	st.Apps = nil
	as := &AppStream{Store: st, Total: len(apps), ch: make(chan *StoreApp, buffer)}
	go func() {
		defer close(as.ch)
		for i, app := range apps {
			apps[i] = nil // drop the producer's reference once handed off
			select {
			case as.ch <- app:
			case <-ctx.Done():
				return
			}
		}
	}()
	return as, nil
}
