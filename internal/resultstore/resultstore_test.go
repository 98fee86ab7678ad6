package resultstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func digestOf(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func open(t *testing.T, opts Options) *Store {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	st, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestPutGetRoundTrip(t *testing.T) {
	st := open(t, Options{Version: 1})
	dg := digestOf("app-1")
	want := json.RawMessage(`{"package":"com.a","status":"exercised"}`)
	if err := st.Put(dg, want); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get(dg)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("got %s, want %s", got, want)
	}
	if _, err := st.Get(digestOf("absent")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("absent digest: err = %v", err)
	}
	s := st.Stats()
	if s.Puts != 1 || s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestGetSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	dg := digestOf("persist")
	st := open(t, Options{Dir: dir, Version: 2})
	if err := st.Put(dg, json.RawMessage(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	// A reopened store (cold LRU) reads the record from disk.
	st2 := open(t, Options{Dir: dir, Version: 2})
	got, err := st2.Get(dg)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != `{"x":1}` {
		t.Fatalf("got %s", got)
	}
	if s := st2.Stats(); s.CacheHits != 0 || s.Hits != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestLRUFrontServesWithoutDisk(t *testing.T) {
	st := open(t, Options{Version: 1})
	dg := digestOf("cached")
	if err := st.Put(dg, json.RawMessage(`{"v":true}`)); err != nil {
		t.Fatal(err)
	}
	// Delete the backing file: the LRU front must still serve the record.
	if err := os.Remove(st.shardPath(dg)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(dg); err != nil {
		t.Fatal(err)
	}
	if s := st.Stats(); s.CacheHits != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	st := open(t, Options{Version: 1, CacheSize: 2})
	var digests []string
	for i := 0; i < 3; i++ {
		dg := digestOf(fmt.Sprintf("app-%d", i))
		digests = append(digests, dg)
		if err := st.Put(dg, json.RawMessage(`{}`)); err != nil {
			t.Fatal(err)
		}
	}
	if n := st.lru.len(); n != 2 {
		t.Fatalf("lru len = %d, want 2", n)
	}
	if _, ok := st.lru.get(digests[0]); ok {
		t.Fatal("oldest entry not evicted")
	}
	// The evicted record is still served from disk.
	if _, err := st.Get(digests[0]); err != nil {
		t.Fatal(err)
	}
}

func TestInMemoryStoreIsBoundedLRU(t *testing.T) {
	// Without a directory the LRU is the whole store: it holds at most
	// CacheSize records, an evicted one is a plain miss, and nothing
	// touches the disk.
	st, err := Open(Options{Version: 1, CacheSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	var digests []string
	for i := 0; i < 3; i++ {
		dg := digestOf(fmt.Sprintf("app-%d", i))
		digests = append(digests, dg)
		if err := st.Put(dg, json.RawMessage(fmt.Sprintf(`{"i":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := st.Len(); err != nil || n != 2 {
		t.Fatalf("Len = %d, %v; want 2", n, err)
	}
	if _, err := st.Get(digests[0]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("evicted record: err = %v, want ErrNotFound", err)
	}
	got, err := st.Get(digests[2])
	if err != nil || string(got) != `{"i":2}` {
		t.Fatalf("Get = %s, %v", got, err)
	}
	if s := st.Stats(); s.Puts != 3 || s.Hits != 1 || s.CacheHits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if _, err := Open(Options{CacheSize: -1}); err == nil {
		t.Fatal("an in-memory store without a cache opened")
	}
}

func TestVersionMismatchIsMiss(t *testing.T) {
	dir := t.TempDir()
	dg := digestOf("versioned")
	stOld := open(t, Options{Dir: dir, Version: 1})
	if err := stOld.Put(dg, json.RawMessage(`{"old":true}`)); err != nil {
		t.Fatal(err)
	}
	stNew := open(t, Options{Dir: dir, Version: 2})
	if _, err := stNew.Get(dg); !errors.Is(err, ErrNotFound) {
		t.Fatalf("stale record served: err = %v", err)
	}
	if s := stNew.Stats(); s.Stale != 1 {
		t.Fatalf("stats = %+v", s)
	}
	// A fresh Put overwrites the stale record in place.
	if err := stNew.Put(dg, json.RawMessage(`{"new":true}`)); err != nil {
		t.Fatal(err)
	}
	got, err := stNew.Get(dg)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != `{"new":true}` {
		t.Fatalf("got %s", got)
	}
}

func TestInvalidDigestRejected(t *testing.T) {
	st := open(t, Options{Version: 1})
	for _, bad := range []string{"", "x", "../../etc/passwd", "ABCDEF012345", "0123/456"} {
		if err := st.Put(bad, json.RawMessage(`{}`)); err == nil {
			t.Fatalf("Put(%q) accepted", bad)
		}
		if _, err := st.Get(bad); err == nil || errors.Is(err, ErrNotFound) {
			t.Fatalf("Get(%q) err = %v, want validation error", bad, err)
		}
	}
}

// TestCrashMidPutLeavesNoPartialRecord injects a write failure mid-Put
// (the crash analogue: the staged bytes never fully land) and verifies no
// record — partial or otherwise — is ever visible under the digest, and
// that the store remains fully usable afterwards.
func TestCrashMidPutLeavesNoPartialRecord(t *testing.T) {
	st := open(t, Options{Version: 1, CacheSize: -1})
	dg := digestOf("crashy")

	st.writeRecord = func(f *os.File, data []byte) error {
		// Simulate dying after half the bytes reached the kernel.
		if _, err := f.Write(data[:len(data)/2]); err != nil {
			return err
		}
		return errors.New("injected: process killed mid-write")
	}
	if err := st.Put(dg, json.RawMessage(`{"half":true}`)); err == nil {
		t.Fatal("Put succeeded despite injected failure")
	}
	if _, err := st.Get(dg); !errors.Is(err, ErrNotFound) {
		t.Fatalf("partial record visible: err = %v", err)
	}
	// No stray temp files remain in the shard directory.
	shardDir := filepath.Dir(st.shardPath(dg))
	entries, err := os.ReadDir(shardDir)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Fatalf("leftover file after failed Put: %s", e.Name())
	}

	// The same digest can be stored once writes heal.
	st.writeRecord = writeFileSync
	if err := st.Put(dg, json.RawMessage(`{"ok":true}`)); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get(dg)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != `{"ok":true}` {
		t.Fatalf("got %s", got)
	}
}

// TestTruncatedShardFileQuarantined simulates a record truncated on disk
// (torn write from a crashed kernel, bit rot): Get must refuse to serve
// it, move it to quarantine/, and let a fresh Put repopulate the slot.
func TestTruncatedShardFileQuarantined(t *testing.T) {
	st := open(t, Options{Version: 1, CacheSize: -1})
	dg := digestOf("torn")
	if err := st.Put(dg, json.RawMessage(`{"full":"record"}`)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(st.shardPath(dg))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.shardPath(dg), raw[:len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := st.Get(dg); !errors.Is(err, ErrNotFound) {
		t.Fatalf("truncated record served: err = %v", err)
	}
	if s := st.Stats(); s.Quarantined != 1 {
		t.Fatalf("stats = %+v", s)
	}
	qpath := filepath.Join(st.dir, "quarantine", dg+".json")
	if _, err := os.Stat(qpath); err != nil {
		t.Fatalf("quarantine file: %v", err)
	}
	if _, err := os.Stat(st.shardPath(dg)); !os.IsNotExist(err) {
		t.Fatal("corrupt record still in shard dir")
	}
	// Repeated Gets stay misses without double-counting quarantine.
	if _, err := st.Get(dg); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if err := st.Put(dg, json.RawMessage(`{"healed":true}`)); err != nil {
		t.Fatal(err)
	}
	if got, err := st.Get(dg); err != nil || string(got) != `{"healed":true}` {
		t.Fatalf("got %s, err %v", got, err)
	}
}

// TestWrongDigestRecordQuarantined covers a record whose envelope parses
// but is keyed under the wrong digest (a copy gone astray).
func TestWrongDigestRecordQuarantined(t *testing.T) {
	st := open(t, Options{Version: 1, CacheSize: -1})
	right := digestOf("right")
	wrong := digestOf("wrong")
	if err := st.Put(right, json.RawMessage(`{}`)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(st.shardPath(right))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(st.shardPath(wrong)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.shardPath(wrong), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(wrong); !errors.Is(err, ErrNotFound) {
		t.Fatalf("mis-keyed record served: err = %v", err)
	}
	if s := st.Stats(); s.Quarantined != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestShardLayout(t *testing.T) {
	st := open(t, Options{Version: 1})
	dg := digestOf("layout")
	if err := st.Put(dg, json.RawMessage(`{}`)); err != nil {
		t.Fatal(err)
	}
	want := filepath.Join(st.dir, "shards", dg[:2], dg+".json")
	if _, err := os.Stat(want); err != nil {
		t.Fatalf("record not at %s: %v", want, err)
	}
	if !strings.HasPrefix(filepath.Base(filepath.Dir(want)), dg[:2]) {
		t.Fatal("shard prefix mismatch")
	}
	if n, err := st.Len(); err != nil || n != 1 {
		t.Fatalf("Len = %d, %v", n, err)
	}
}

func TestConcurrentPutGet(t *testing.T) {
	st := open(t, Options{Version: 1, CacheSize: 8})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				dg := digestOf(fmt.Sprintf("app-%d", i%10))
				data := json.RawMessage(fmt.Sprintf(`{"i":%d}`, i))
				if err := st.Put(dg, data); err != nil {
					t.Error(err)
					return
				}
				if _, err := st.Get(dg); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n, err := st.Len(); err != nil || n != 10 {
		t.Fatalf("Len = %d, %v", n, err)
	}
}

// TestLRUConcurrentEvictionCoherence hammers the LRU front with a working
// set far larger than its capacity: concurrent readers and writers churn
// the same keys through get/put/evict and every read must return the
// bytes written for exactly that digest (no cross-key mixups, no stale
// truncations), while the cache never exceeds its bound. Run with -race.
func TestLRUConcurrentEvictionCoherence(t *testing.T) {
	const (
		cacheCap = 4
		keys     = 32
		workers  = 8
		rounds   = 50
	)
	st := open(t, Options{Version: 1, CacheSize: cacheCap})
	valueFor := func(k int) json.RawMessage {
		return json.RawMessage(fmt.Sprintf(`{"app":%d,"pad":%q}`, k, strings.Repeat("x", k)))
	}
	for k := 0; k < keys; k++ {
		if err := st.Put(digestOf(fmt.Sprintf("churn-%d", k)), valueFor(k)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := (w*7 + i*13) % keys
				dg := digestOf(fmt.Sprintf("churn-%d", k))
				if i%3 == 0 {
					if err := st.Put(dg, valueFor(k)); err != nil {
						t.Error(err)
						return
					}
				}
				got, err := st.Get(dg)
				if err != nil {
					t.Error(err)
					return
				}
				if string(got) != string(valueFor(k)) {
					t.Errorf("key %d read wrong bytes: %s", k, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := st.lru.len(); n > cacheCap {
		t.Fatalf("cache holds %d entries, cap %d", n, cacheCap)
	}
	// Disk remains complete after all the eviction churn.
	if n, err := st.Len(); err != nil || n != keys {
		t.Fatalf("Len = %d, %v, want %d", n, err, keys)
	}
	snap := st.Stats()
	if snap.CacheHits == 0 {
		t.Fatal("LRU front never served a hit under churn")
	}
	if snap.Hits != int64(workers*rounds) {
		t.Fatalf("hits = %d, want %d", snap.Hits, workers*rounds)
	}
}

// TestStalledPutDoesNotBlockOtherDigests stalls one Put inside its file
// write (a slow fsync) and shows that a Put of another digest completes
// meanwhile and is served: one slow disk write holds up only its own
// record, never every daemon worker.
func TestStalledPutDoesNotBlockOtherDigests(t *testing.T) {
	st := open(t, Options{Version: 1})
	stalled, other := digestOf("stalled"), digestOf("other")
	entered, release := make(chan struct{}), make(chan struct{})
	st.writeRecord = func(f *os.File, data []byte) error {
		if strings.Contains(string(data), stalled) {
			close(entered)
			<-release
		}
		return writeFileSync(f, data)
	}
	slow := make(chan error, 1)
	go func() { slow <- st.Put(stalled, json.RawMessage(`{"slow":true}`)) }()
	defer func() {
		close(release)
		if err := <-slow; err != nil {
			t.Error(err)
		}
	}()
	<-entered

	fast := make(chan error, 1)
	go func() { fast <- st.Put(other, json.RawMessage(`{"fast":true}`)) }()
	select {
	case err := <-fast:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a Put of another digest waited for the stalled write")
	}
	if got, err := st.Get(other); err != nil || string(got) != `{"fast":true}` {
		t.Fatalf("got %s, err %v", got, err)
	}
}

// TestQuarantineRacingPutNeverServesCorrupt races Gets that quarantine a
// torn record with Puts of the good one under the same digest: a Get
// either misses or serves the good record, never the torn bytes.
func TestQuarantineRacingPutNeverServesCorrupt(t *testing.T) {
	st := open(t, Options{Version: 1, CacheSize: -1})
	dg := digestOf("contested")
	good := json.RawMessage(`{"good":true}`)
	if err := st.Put(dg, good); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				switch w {
				case 0:
					os.WriteFile(st.shardPath(dg), []byte(`{"version":1,"dig`), 0o644)
				case 1:
					if err := st.Put(dg, good); err != nil {
						t.Error(err)
					}
				default:
					got, err := st.Get(dg)
					if err == nil && string(got) != string(good) {
						t.Errorf("served %s", got)
					} else if err != nil && !errors.Is(err, ErrNotFound) {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
