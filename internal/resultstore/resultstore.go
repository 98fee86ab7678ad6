// Package resultstore is the durable verdict cache behind the online
// vetting service: a sharded, content-addressed store keyed by the APK
// digest (the SHA-256 of its bytes). Records are JSON envelopes on disk
// under shards/<prefix>/<digest>.json with an in-memory LRU front, written
// atomically (temp file + rename) so a crash mid-Put never exposes a
// partial record. Records that fail to parse or whose digest does not
// match their key are moved to quarantine/ instead of being served, and
// an envelope version lets pipeline changes invalidate stale verdicts
// wholesale. Without a directory the store is the LRU alone: verdicts
// live in memory, at most CacheSize of them.
package resultstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
)

// ErrNotFound is returned by Get when no servable record exists for the
// digest — absent, stale-versioned, and quarantined records all report it
// so callers treat every non-hit as a plain cache miss.
var ErrNotFound = errors.New("resultstore: not found")

// shardPrefixLen is the number of leading digest characters naming the
// shard directory; 2 hex chars give 256 shards, keeping directory fan-out
// flat at marketplace scale.
const shardPrefixLen = 2

// Options configure a Store.
type Options struct {
	// Dir is the store root (created if missing). Empty keeps records in
	// the in-memory LRU only, which then is the whole store.
	Dir string
	// Version stamps every record written; Get treats records carrying a
	// different version as misses. Bump it whenever the analysis pipeline
	// changes in a way that invalidates old verdicts.
	Version int
	// CacheSize bounds the in-memory LRU front (entries, default 512;
	// negative disables the cache, which an in-memory store cannot do).
	CacheSize int
}

// Store is a content-addressed result store. All methods are safe for
// concurrent use. No lock spans a disk write: every Put stages its own
// temp file and publishes it with an atomic rename, so a slow fsync holds
// up only its own record.
type Store struct {
	dir     string
	version int
	lru     *lruCache

	hits        atomic.Int64
	misses      atomic.Int64
	puts        atomic.Int64
	cacheHits   atomic.Int64
	stale       atomic.Int64
	quarantined atomic.Int64

	// writeRecord is the file-write seam; tests inject failures here to
	// prove crash consistency. Defaults to writeFileSync.
	writeRecord func(f *os.File, data []byte) error
}

// Stats is a point-in-time view of the store's traffic counters.
type Stats struct {
	// Hits / Misses split Get calls; CacheHits counts the subset of hits
	// served from the LRU without touching disk.
	Hits      int64
	Misses    int64
	CacheHits int64
	// Puts counts successful writes.
	Puts int64
	// Stale counts records skipped for carrying an old version.
	Stale int64
	// Quarantined counts corrupt records moved aside.
	Quarantined int64
}

// envelope is the on-disk record format. Data is kept raw so the store is
// agnostic to what the pipeline serves.
type envelope struct {
	Version int             `json:"version"`
	Digest  string          `json:"digest"`
	Data    json.RawMessage `json:"data"`
}

// Open creates or reopens a store rooted at opts.Dir, or an in-memory
// store when opts.Dir is empty.
func Open(opts Options) (*Store, error) {
	size := opts.CacheSize
	if size == 0 {
		size = 512
	}
	if opts.Dir == "" && size < 0 {
		return nil, errors.New("resultstore: an in-memory store needs a cache")
	}
	if opts.Dir != "" {
		for _, d := range []string{opts.Dir, filepath.Join(opts.Dir, "shards"), filepath.Join(opts.Dir, "quarantine")} {
			if err := os.MkdirAll(d, 0o755); err != nil {
				return nil, fmt.Errorf("resultstore: %w", err)
			}
		}
	}
	s := &Store{
		dir:         opts.Dir,
		version:     opts.Version,
		writeRecord: writeFileSync,
	}
	if size > 0 {
		s.lru = newLRU(size)
	}
	return s, nil
}

// validDigest accepts lowercase-hex digests only, which keeps shard paths
// trivially traversal-safe.
func validDigest(d string) bool {
	if len(d) < shardPrefixLen || len(d) > 128 {
		return false
	}
	for _, c := range d {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *Store) shardPath(digest string) string {
	return filepath.Join(s.dir, "shards", digest[:shardPrefixLen], digest+".json")
}

// Get returns the stored record data for the digest, or ErrNotFound.
// Corrupt records (unparseable, or keyed under a digest that does not
// match their envelope) are quarantined on sight and reported as misses.
func (s *Store) Get(digest string) (json.RawMessage, error) {
	if !validDigest(digest) {
		return nil, fmt.Errorf("resultstore: invalid digest %q", digest)
	}
	if s.lru != nil {
		if data, ok := s.lru.get(digest); ok {
			s.hits.Add(1)
			s.cacheHits.Add(1)
			return data, nil
		}
	}
	if s.dir == "" {
		s.misses.Add(1)
		return nil, ErrNotFound
	}
	raw, err := os.ReadFile(s.shardPath(digest))
	if err != nil {
		if os.IsNotExist(err) {
			s.misses.Add(1)
			return nil, ErrNotFound
		}
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil || env.Digest != digest {
		s.quarantine(digest)
		s.misses.Add(1)
		return nil, ErrNotFound
	}
	if env.Version != s.version {
		s.stale.Add(1)
		s.misses.Add(1)
		return nil, ErrNotFound
	}
	if s.lru != nil {
		s.lru.put(digest, env.Data)
	}
	s.hits.Add(1)
	return env.Data, nil
}

// Put stores data under the digest, replacing any previous record. The
// write is atomic: the record is staged in a temp file in the shard
// directory and renamed into place, so readers (and crashes) never see a
// partial record.
func (s *Store) Put(digest string, data json.RawMessage) error {
	if !validDigest(digest) {
		return fmt.Errorf("resultstore: invalid digest %q", digest)
	}
	if s.dir == "" {
		s.lru.put(digest, data)
		s.puts.Add(1)
		return nil
	}
	raw, err := json.Marshal(envelope{Version: s.version, Digest: digest, Data: data})
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	dst := s.shardPath(digest)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	f, err := os.CreateTemp(filepath.Dir(dst), ".put-*")
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	tmp := f.Name()
	if err := s.writeRecord(f, raw); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("resultstore: put %s: %w", digest, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("resultstore: put %s: %w", digest, err)
	}
	if err := os.Rename(tmp, dst); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("resultstore: put %s: %w", digest, err)
	}
	if s.lru != nil {
		s.lru.put(digest, data)
	}
	s.puts.Add(1)
	return nil
}

// quarantine moves a corrupt shard file aside so it is never served again
// but stays available for post-mortem inspection. A digest-named
// destination keeps the move idempotent. A Put racing the move can at
// worst see its fresh record moved aside too; the next scan of that app
// then re-analyzes it, and Get never serves a record that fails to parse.
func (s *Store) quarantine(digest string) {
	src := s.shardPath(digest)
	dst := filepath.Join(s.dir, "quarantine", digest+".json")
	if err := os.Rename(src, dst); err != nil {
		// A concurrent quarantine already moved it; dropping the file
		// would also be acceptable, losing only forensic data.
		os.Remove(src)
	}
	if s.lru != nil {
		s.lru.remove(digest)
	}
	s.quarantined.Add(1)
}

// Stats snapshots the traffic counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		CacheHits:   s.cacheHits.Load(),
		Puts:        s.puts.Load(),
		Stale:       s.stale.Load(),
		Quarantined: s.quarantined.Load(),
	}
}

// Len reports the number of records on disk (stale and fresh alike), or
// in memory for an in-memory store; on disk it walks the shard tree, so
// it is for tooling and tests, not hot paths.
func (s *Store) Len() (int, error) {
	if s.dir == "" {
		return s.lru.len(), nil
	}
	n := 0
	err := filepath.WalkDir(filepath.Join(s.dir, "shards"), func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && filepath.Ext(path) == ".json" {
			n++
		}
		return nil
	})
	return n, err
}

// writeFileSync writes and syncs the staged record; the sync guarantees
// the rename never publishes a name pointing at unwritten data after a
// power cut.
func writeFileSync(f *os.File, data []byte) error {
	if _, err := f.Write(data); err != nil {
		return err
	}
	return f.Sync()
}
