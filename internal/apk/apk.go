package apk

import (
	"archive/zip"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Well-known entry names and prefixes inside the archive.
const (
	ManifestEntry = "AndroidManifest.xml"
	DexEntry      = "classes.dex"
	AssetsPrefix  = "assets/"
	LibPrefix     = "lib/armeabi/"

	// AntiRepackEntry marks an app protected against repackaging: the
	// apktool analogue fails to rewrite archives containing it, producing
	// the "Rewriting failure" row of Table II.
	AntiRepackEntry = "META-INF/antirepack.bin"
)

// maxEntrySize bounds a single decompressed entry (64 MiB) so hostile
// archives cannot exhaust memory.
const maxEntrySize = 64 << 20

// APK is the parsed form of an application package.
type APK struct {
	Manifest Manifest
	// Dex is the raw classes.dex bytes (SDEX format). Nil when the app
	// ships no bytecode entry.
	Dex []byte
	// Assets maps asset names (without the assets/ prefix) to contents.
	// Packers store their encrypted DEX payload here.
	Assets map[string][]byte
	// NativeLibs maps library file names (e.g. "libshell.so", without the
	// lib/armeabi/ prefix) to SELF bytes.
	NativeLibs map[string][]byte
	// Extra holds any other archive entries verbatim (for example the
	// anti-repackaging marker).
	Extra map[string][]byte
}

// Build serializes the package as a zip archive. Output is
// deterministic, so equal packages build to equal bytes and share a
// SigningDigest.
func Build(a *APK) ([]byte, error) {
	if err := a.Manifest.Validate(); err != nil {
		return nil, fmt.Errorf("apk: build: %w", err)
	}
	manifestXML, err := a.Manifest.MarshalXMLBytes()
	if err != nil {
		return nil, err
	}
	entries := map[string][]byte{ManifestEntry: manifestXML}
	if a.Dex != nil {
		entries[DexEntry] = a.Dex
	}
	for name, data := range a.Assets {
		entries[AssetsPrefix+name] = data
	}
	for name, data := range a.NativeLibs {
		entries[LibPrefix+name] = data
	}
	for name, data := range a.Extra {
		entries[name] = data
	}

	names := make([]string, 0, len(entries))
	for name := range entries {
		names = append(names, name)
	}
	sort.Strings(names)

	// The archive is assembled in a pooled scratch buffer: the zip layer
	// writes through it freely and only the exact-size result escapes,
	// so steady-state builds stop re-growing a fresh bytes.Buffer per
	// archive (Build dominates the pipeline's allocation profile).
	buf := scratchPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer scratchPool.Put(buf)
	zw := zip.NewWriter(buf)
	for _, name := range names {
		// Store entries uncompressed: the corpus payloads (SDEX, SELF,
		// packed assets) are synthetic and small, and flate accounted for
		// roughly a quarter of pipeline CPU.
		w, err := zw.CreateHeader(&zip.FileHeader{Name: name, Method: zip.Store})
		if err != nil {
			return nil, fmt.Errorf("apk: build %s: %w", name, err)
		}
		if _, err := w.Write(entries[name]); err != nil {
			return nil, fmt.Errorf("apk: build %s: %w", name, err)
		}
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("apk: build: %w", err)
	}
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	return out, nil
}

// scratchPool recycles the serialization buffers behind Build. Buffers
// grow to the largest archive they have seen and stay warm across the run.
var scratchPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// parseCalls counts Parse invocations since process start. The
// single-parse pipeline promises exactly one Parse per analyzed app; the
// regression test in internal/experiments asserts that promise against
// this counter so redundant round-trips cannot silently return.
var parseCalls atomic.Int64

// ParseCalls returns the number of Parse invocations so far (test hook).
func ParseCalls() int64 { return parseCalls.Load() }

// Parse reads an APK archive back into its object form.
func Parse(data []byte) (*APK, error) {
	parseCalls.Add(1)
	zr, err := zip.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, fmt.Errorf("apk: parse: %w", err)
	}
	a := &APK{
		Assets:     make(map[string][]byte),
		NativeLibs: make(map[string][]byte),
		Extra:      make(map[string][]byte),
	}
	sawManifest := false
	for _, f := range zr.File {
		content, err := readEntry(f, len(data))
		if err != nil {
			return nil, err
		}
		switch {
		case f.Name == ManifestEntry:
			m, err := ParseManifest(content)
			if err != nil {
				return nil, err
			}
			a.Manifest = *m
			sawManifest = true
		case f.Name == DexEntry:
			a.Dex = content
		case strings.HasPrefix(f.Name, AssetsPrefix):
			a.Assets[strings.TrimPrefix(f.Name, AssetsPrefix)] = content
		case strings.HasPrefix(f.Name, LibPrefix):
			a.NativeLibs[strings.TrimPrefix(f.Name, LibPrefix)] = content
		default:
			a.Extra[f.Name] = content
		}
	}
	if !sawManifest {
		return nil, fmt.Errorf("apk: parse: missing %s", ManifestEntry)
	}
	return a, nil
}

// readEntry decompresses one entry of an archive archiveLen bytes long.
func readEntry(f *zip.File, archiveLen int) ([]byte, error) {
	if f.UncompressedSize64 > maxEntrySize {
		return nil, fmt.Errorf("apk: entry %s is implausibly large (%d bytes)", f.Name, f.UncompressedSize64)
	}
	rc, err := f.Open()
	if err != nil {
		return nil, fmt.Errorf("apk: open %s: %w", f.Name, err)
	}
	defer rc.Close()
	// Read the declared size (validated against maxEntrySize above) into
	// one up-front buffer, but never a larger one than the archive itself:
	// a stored entry cannot outgrow its archive, so every entry Build
	// writes still costs one exact allocation, while a header declaring
	// more than the archive holds buys nothing. Only a compressed entry
	// reads past that, and only as its bytes arrive. A post-read probe
	// catches archives whose payload exceeds the declared size.
	content := make([]byte, min(f.UncompressedSize64, uint64(archiveLen)))
	if _, err := io.ReadFull(rc, content); err != nil {
		return nil, fmt.Errorf("apk: read %s: %w", f.Name, err)
	}
	if rest := f.UncompressedSize64 - uint64(len(content)); rest > 0 {
		more, err := io.ReadAll(io.LimitReader(rc, int64(rest)))
		if err != nil {
			return nil, fmt.Errorf("apk: read %s: %w", f.Name, err)
		}
		if uint64(len(more)) < rest {
			return nil, fmt.Errorf("apk: read %s: %w", f.Name, io.ErrUnexpectedEOF)
		}
		content = append(content, more...)
	}
	var probe [1]byte
	if n, _ := rc.Read(probe[:]); n > 0 {
		return nil, fmt.Errorf("apk: entry %s larger than declared size", f.Name)
	}
	return content, nil
}

// SigningDigest returns the content-addressed identity of an archive:
// the hex SHA-256 of the submitted bytes, so two submissions share a
// digest exactly when every byte the pipeline analyzes is the same. It
// opens neither an entry nor the central directory: checkEndRecord only
// rejects bodies that are not archives at all, in constant memory. This
// is the key of the vetting service's result store, of the cluster's
// ring routing and of the warm-start store.
func SigningDigest(data []byte) (string, error) {
	if err := checkEndRecord(data); err != nil {
		return "", fmt.Errorf("apk: digest: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// Zip end-of-central-directory layout (APPNOTE 4.3.14-4.3.16).
const (
	endSig      = 0x06054b50
	endLen      = 22
	end64LocSig = 0x07064b50
	end64LocLen = 20
	end64Sig    = 0x06064b50
	end64Len    = 56
)

// checkEndRecord validates the end-of-central-directory record: its
// signature within the last 22+65,535 bytes, a comment length that ends
// exactly at EOF, and a directory (offset plus size) that ends before
// the record. Zip64 sentinels are resolved through the zip64 end record,
// as archive/zip does.
func checkEndRecord(data []byte) error {
	le16 := func(off int) uint64 { return uint64(binary.LittleEndian.Uint16(data[off:])) }
	le32 := func(off int) uint64 { return uint64(binary.LittleEndian.Uint32(data[off:])) }
	for i := len(data) - endLen; i >= 0 && i >= len(data)-endLen-0xffff; i-- {
		if le32(i) != endSig || i+endLen+int(le16(i+20)) != len(data) {
			continue
		}
		end, size, off := uint64(i), le32(i+12), le32(i+16)
		if le16(i+10) == 0xffff || size == 0xffffffff || off == 0xffffffff {
			if loc := i - end64LocLen; loc >= 0 && le32(loc) == end64LocSig {
				rec := binary.LittleEndian.Uint64(data[loc+8:])
				if rec > uint64(loc) || uint64(loc)-rec < end64Len || le32(int(rec)) != end64Sig {
					return fmt.Errorf("%w: bad zip64 end record", zip.ErrFormat)
				}
				end = rec
				size = binary.LittleEndian.Uint64(data[rec+40:])
				off = binary.LittleEndian.Uint64(data[rec+48:])
			}
		}
		if off > end || size > end-off {
			return fmt.Errorf("%w: central directory out of bounds", zip.ErrFormat)
		}
		return nil
	}
	return zip.ErrFormat
}

// HasAntiRepack reports whether the package carries the anti-repackaging
// marker.
func (a *APK) HasAntiRepack() bool {
	_, ok := a.Extra[AntiRepackEntry]
	return ok
}

// Clone returns a deep copy, used by rewriting passes.
func (a *APK) Clone() *APK {
	cp := &APK{
		Manifest:   a.Manifest,
		Dex:        append([]byte(nil), a.Dex...),
		Assets:     cloneMap(a.Assets),
		NativeLibs: cloneMap(a.NativeLibs),
		Extra:      cloneMap(a.Extra),
	}
	if a.Dex == nil {
		cp.Dex = nil
	}
	cp.Manifest.Permissions = append([]UsesPerm(nil), a.Manifest.Permissions...)
	cp.Manifest.Application.Activities = append([]Component(nil), a.Manifest.Application.Activities...)
	cp.Manifest.Application.Services = append([]Component(nil), a.Manifest.Application.Services...)
	cp.Manifest.Application.Receivers = append([]Component(nil), a.Manifest.Application.Receivers...)
	cp.Manifest.Application.Providers = append([]Component(nil), a.Manifest.Application.Providers...)
	return cp
}

func cloneMap(m map[string][]byte) map[string][]byte {
	out := make(map[string][]byte, len(m))
	for k, v := range m {
		out[k] = append([]byte(nil), v...)
	}
	return out
}
