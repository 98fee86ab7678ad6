package service

import (
	"encoding/json"

	"github.com/dydroid/dydroid/internal/bouncer"
	"github.com/dydroid/dydroid/internal/core"
)

// RecordVersion stamps every stored verdict. Bump it whenever the record
// shape or the analysis pipeline changes in a way that invalidates cached
// verdicts; the result store then treats old records as misses.
const RecordVersion = 3

// Record is the machine-readable per-app verdict: the JSON the daemon
// serves from /v1/result and `dydroid -json` prints. It is a flattened,
// stable view of core.AppResult plus the optional store review, built so
// marshaling is deterministic — the same APK always serializes to the
// same bytes.
type Record struct {
	// Digest is the SHA-256 of the submitted APK bytes
	// (apk.SigningDigest), the content address of the store.
	Digest  string `json:"digest"`
	Package string `json:"package"`
	Status  string `json:"status"`
	Crash   string `json:"crash,omitempty"`

	PreFilter   PreFilter   `json:"pre_filter"`
	Obfuscation Obfuscation `json:"obfuscation"`

	Events        []Event        `json:"events,omitempty"`
	Malware       []Malware      `json:"malware,omitempty"`
	Vulns         []Vuln         `json:"vulns,omitempty"`
	PrivacyLeaks  []PrivacyLeak  `json:"privacy_leaks,omitempty"`
	RuntimeEvents []RuntimeEvent `json:"runtime_events,omitempty"`

	// Review is the marketplace Bouncer verdict (absent when the service
	// runs without a reviewer, e.g. `dydroid -json`).
	Review *Review `json:"review,omitempty"`
}

// PreFilter mirrors the static DCL existence check.
type PreFilter struct {
	HasDexDCL    bool `json:"has_dex_dcl"`
	HasNativeDCL bool `json:"has_native_dcl"`
}

// Obfuscation mirrors the Table VI technique report.
type Obfuscation struct {
	Lexical       bool `json:"lexical"`
	Reflection    bool `json:"reflection"`
	Native        bool `json:"native"`
	DEXEncryption bool `json:"dex_encryption"`
	AntiDecompile bool `json:"anti_decompile"`
}

// Event is one DCL event with its attribution.
type Event struct {
	Kind        string `json:"kind"`
	API         string `json:"api"`
	Path        string `json:"path"`
	CallSite    string `json:"call_site"`
	Entity      string `json:"entity"`
	Provenance  string `json:"provenance"`
	SourceURL   string `json:"source_url,omitempty"`
	Intercepted bool   `json:"intercepted"`
}

// Malware is one DroidNative detection over intercepted code.
type Malware struct {
	Path   string  `json:"path"`
	Kind   string  `json:"kind"`
	Family string  `json:"family"`
	Score  float64 `json:"score"`
}

// Vuln is one code-injection-prone load.
type Vuln struct {
	Kind         string `json:"kind"`
	Code         string `json:"code"`
	Path         string `json:"path"`
	OwnerPackage string `json:"owner_package,omitempty"`
}

// PrivacyLeak is one leaked data type with entity attribution.
type PrivacyLeak struct {
	Type string `json:"type"`
	// ExclusivelyThirdParty is true when only third-party code leaked it.
	ExclusivelyThirdParty bool `json:"exclusively_third_party"`
}

// RuntimeEvent is one behavioural event observed during exercise.
type RuntimeEvent struct {
	Kind   string `json:"kind"`
	Detail string `json:"detail,omitempty"`
}

// Review is the store-side verdict.
type Review struct {
	Approved bool   `json:"approved"`
	Reason   string `json:"reason,omitempty"`
}

// NewRecord flattens an analysis result (and optional review verdict)
// into the served record shape.
func NewRecord(digest string, res *core.AppResult, verdict *bouncer.Verdict) *Record {
	rec := &Record{
		Digest:  digest,
		Package: res.Package,
		Status:  string(res.Status),
		PreFilter: PreFilter{
			HasDexDCL:    res.PreFilter.HasDexDCL,
			HasNativeDCL: res.PreFilter.HasNativeDCL,
		},
		Obfuscation: Obfuscation{
			Lexical:       res.Obfuscation.Lexical,
			Reflection:    res.Obfuscation.Reflection,
			Native:        res.Obfuscation.Native,
			DEXEncryption: res.Obfuscation.DEXEncryption,
			AntiDecompile: res.Obfuscation.AntiDecompile,
		},
	}
	if res.Crash != nil {
		rec.Crash = res.Crash.Error()
	}
	for _, ev := range res.Events {
		rec.Events = append(rec.Events, Event{
			Kind:        string(ev.Kind),
			API:         ev.API,
			Path:        ev.Path,
			CallSite:    ev.CallSite,
			Entity:      string(ev.Entity),
			Provenance:  string(ev.Provenance),
			SourceURL:   ev.SourceURL,
			Intercepted: ev.Intercepted != nil,
		})
	}
	for _, hit := range res.Malware {
		rec.Malware = append(rec.Malware, Malware{
			Path: hit.Path, Kind: string(hit.Kind), Family: hit.Family, Score: hit.Score,
		})
	}
	for _, v := range res.Vulns {
		rec.Vulns = append(rec.Vulns, Vuln{
			Kind: string(v.Kind), Code: string(v.Code), Path: v.Path, OwnerPackage: v.OwnerPackage,
		})
	}
	if res.Privacy != nil {
		// LeakedTypes is sorted, keeping the record deterministic.
		for _, dt := range res.Privacy.LeakedTypes() {
			rec.PrivacyLeaks = append(rec.PrivacyLeaks, PrivacyLeak{
				Type:                  string(dt),
				ExclusivelyThirdParty: res.PrivacyByEntity[string(dt)],
			})
		}
	}
	for _, ev := range res.RuntimeEvents {
		rec.RuntimeEvents = append(rec.RuntimeEvents, RuntimeEvent{Kind: ev.Kind, Detail: ev.Detail})
	}
	if verdict != nil {
		rec.Review = &Review{Approved: verdict.Approved, Reason: verdict.Reason}
	}
	return rec
}

// Marshal serializes the record to its canonical served bytes.
func (r *Record) Marshal() (json.RawMessage, error) {
	return json.Marshal(r)
}
