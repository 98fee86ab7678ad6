package corpus

import (
	"fmt"
	"sync"
	"time"

	"github.com/dydroid/dydroid/internal/android"
	"github.com/dydroid/dydroid/internal/apk"
	"github.com/dydroid/dydroid/internal/dex"
	"github.com/dydroid/dydroid/internal/nativebin"
	"github.com/dydroid/dydroid/internal/obfuscation"
)

// Spec is the ground-truth description of one generated app. The
// generator derives an APK from it; the measurement pipeline should
// recover exactly these facts.
type Spec struct {
	Pkg       string
	Category  string
	MinSDK    int
	Archetype string

	// DEX-side DCL behaviours.
	AdMob           bool   // Google-Ads-style temp-file load (third party)
	RemoteURL       string // Baidu-style remote fetch (third party)
	RemoteURL2      string // second remote payload (the cnad JAR+APK pattern)
	GenericThirdDex bool   // generic SDK plugin load (third party)
	OwnDex          bool   // developer's own update load
	DexCodeOnly     bool   // loader code present but never executed
	VulnExternalDex bool   // own load from world-writable external storage

	// Native-side DCL behaviours.
	AdNative        bool // ad SDK loads its native renderer (third party)
	ThirdNative     bool // game-engine SDK loads a lib (third party)
	OwnNative       bool // developer loads own lib
	NativeCodeOnly  bool // lib bundled / load call present, never executed
	VulnAdobeAir    bool // loads com.adobe.air's libCore.so
	VulnDevicescape bool // loads the Devicescape offloader lib

	// Malware.
	MalwareFamily string // "", "swiss", "adware", "chathook"
	MalwareFiles  int    // number of malicious files (chathook: 1 or 2)
	Gates         []Gate // one per malicious file
	ReleaseDate   time.Time

	// Failure injection.
	AntiRepack    bool
	NoActivity    bool
	CrashAtLaunch bool

	// Obfuscation.
	Lexical       bool
	Reflection    bool
	AntiDecompile bool
	Packed        bool
	PackKey       byte

	// Privacy behaviours of the loaded code.
	LeakThird    []android.DataType
	LeakOwn      []android.DataType
	ReadSettings bool
}

// payloadCache shares identical payload bytes across apps. The libs map
// is filled lazily by concurrent pipeline workers building APKs, so all
// access goes through the mutex.
type payloadCache struct {
	ad     []byte
	swiss  []byte
	adware []byte
	mu     sync.Mutex
	libs   map[string][]byte
}

func newPayloadCache() (*payloadCache, error) {
	c := &payloadCache{libs: make(map[string][]byte)}
	var err error
	if c.ad, err = adPayloadDex(); err != nil {
		return nil, err
	}
	if c.swiss, err = swissPayloadDex(); err != nil {
		return nil, err
	}
	if c.adware, err = adwarePayloadDex(); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *payloadCache) lib(name string, build func() (*nativebin.Library, error)) ([]byte, error) {
	c.mu.Lock()
	if data, ok := c.libs[name]; ok {
		c.mu.Unlock()
		return data, nil
	}
	c.mu.Unlock()
	// Build outside the lock; generation is deterministic, so a racing
	// duplicate build produces identical bytes and either may win.
	lib, err := build()
	if err != nil {
		return nil, err
	}
	data, err := nativebin.Encode(lib)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.libs[name] = data
	c.mu.Unlock()
	return data, nil
}

// Build derives the APK for the spec.
func (s *Spec) Build(cache *payloadCache) (*apk.APK, error) {
	if s.Packed {
		return s.buildPacked(cache)
	}
	a, err := s.buildPlain(cache)
	if err != nil {
		return nil, err
	}
	if s.Lexical {
		if a, err = obfuscation.LexicalRename(a); err != nil {
			return nil, fmt.Errorf("corpus: %s: %w", s.Pkg, err)
		}
	}
	if s.AntiDecompile {
		if a, err = obfuscation.AddAntiDecompilation(a); err != nil {
			return nil, fmt.Errorf("corpus: %s: %w", s.Pkg, err)
		}
	}
	if s.AntiRepack {
		if a.Extra == nil {
			a.Extra = make(map[string][]byte)
		}
		a.Extra[apk.AntiRepackEntry] = []byte{1}
	}
	return a, nil
}

// buildPacked builds a simple inner app and packs it.
func (s *Spec) buildPacked(cache *payloadCache) (*apk.APK, error) {
	inner := &Spec{Pkg: s.Pkg, Category: s.Category, MinSDK: s.MinSDK}
	a, err := inner.buildPlain(cache)
	if err != nil {
		return nil, err
	}
	key := s.PackKey
	if key == 0 {
		key = 0x5a
	}
	packed, err := obfuscation.Pack(a, key)
	if err != nil {
		return nil, fmt.Errorf("corpus: pack %s: %w", s.Pkg, err)
	}
	return packed, nil
}

func (s *Spec) buildPlain(cache *payloadCache) (*apk.APK, error) {
	b := dex.NewBuilder()
	a := &apk.APK{
		Manifest: apk.Manifest{
			Package: s.Pkg,
			MinSDK:  s.minSDK(),
			Application: apk.Application{
				Label: s.Pkg,
			},
		},
		Assets:     map[string][]byte{},
		NativeLibs: map[string][]byte{},
		Extra:      map[string][]byte{},
	}

	// The component holding the app's entry point.
	hostClass := s.Pkg + ".MainActivity"
	var host *dex.ClassBuilder
	if s.NoActivity {
		hostClass = s.Pkg + ".SyncService"
		host = b.Class(hostClass, "android.app.Service")
		a.Manifest.Application.Services = append(a.Manifest.Application.Services,
			apk.Component{Name: hostClass})
	} else {
		host = b.Class(hostClass, "android.app.Activity")
		a.Manifest.Application.Activities = append(a.Manifest.Application.Activities,
			apk.Component{Name: hostClass, Main: true,
				Actions: []apk.Action{{Name: "android.intent.action.MAIN"}}})
	}

	entry := host.Method("onCreate", dex.ACCPublic, 8, "V", "Landroid/os/Bundle;")
	if s.CrashAtLaunch {
		entry.ConstString(1, "NullPointerException").Throw(1)
	}

	if s.AdMob {
		if err := s.addAdSDK(b, a, entry, cache); err != nil {
			return nil, err
		}
	}
	if s.RemoteURL != "" {
		s.addBaiduSDK(b, entry)
	}
	if s.GenericThirdDex {
		if err := s.addGenericPluginSDK(b, a, entry, cache); err != nil {
			return nil, err
		}
	}
	if s.OwnDex {
		if err := s.addOwnUpdater(b, a, entry, cache); err != nil {
			return nil, err
		}
	}
	if s.VulnExternalDex {
		if err := s.addVulnExternal(b, a, entry, cache); err != nil {
			return nil, err
		}
		a.Manifest.AddPermission(apk.WriteExternalStorage)
	}
	if s.DexCodeOnly {
		addDormantDexLoader(host)
	}

	if s.AdNative {
		if err := s.addAdNative(b, a, entry, cache); err != nil {
			return nil, err
		}
	}
	if s.ThirdNative {
		if err := s.addEngineSDK(b, a, entry, cache); err != nil {
			return nil, err
		}
	}
	if s.OwnNative {
		if err := s.addOwnNative(a, entry, cache); err != nil {
			return nil, err
		}
	}
	if s.VulnAdobeAir {
		entry.ConstString(1, android.InternalDir(AdobeAirPackage)+"lib/libCore.so").
			InvokeStatic(refLoad, 1)
	}
	if s.VulnDevicescape {
		entry.ConstString(1, android.InternalDir(DevicescapePackage)+"lib/libdevicescape-jni.so").
			InvokeStatic(refLoad, 1)
	}
	if s.NativeCodeOnly {
		lib, err := cache.lib("libdormant.so", func() (*nativebin.Library, error) {
			return benignLib("libdormant.so", 0)
		})
		if err != nil {
			return nil, err
		}
		a.NativeLibs["libdormant.so"] = lib
	}

	switch s.MalwareFamily {
	case "swiss":
		if err := s.addGatedDexMalware(b, a, entry, cache.swiss, "upd"); err != nil {
			return nil, err
		}
	case "adware":
		if err := s.addGatedDexMalware(b, a, entry, cache.adware, "push"); err != nil {
			return nil, err
		}
	case "chathook":
		if err := s.addChathook(b, a, entry, cache); err != nil {
			return nil, err
		}
	}

	if s.Reflection {
		addReflectionMarker(host, hostClass)
	}

	entry.ReturnVoid().Done()

	dexBytes, err := dex.Encode(b.File())
	if err != nil {
		return nil, fmt.Errorf("corpus: %s: %w", s.Pkg, err)
	}
	a.Dex = dexBytes
	return a, nil
}

func (s *Spec) minSDK() int {
	if s.MinSDK != 0 {
		return s.MinSDK
	}
	return 16
}

// cacheDir returns the app's private cache directory.
func (s *Spec) cacheDir() string { return android.InternalDir(s.Pkg) + "cache/" }

// assetDir returns where installed assets land.
func (s *Spec) assetDir() string { return android.InternalDir(s.Pkg) + "assets/" }

// odexDir is the optimized-output directory apps pass to DexClassLoader.
func (s *Spec) odexDir() string { return s.cacheDir() + "odex" }

// emitAssetCopy appends code copying an installed asset to dst.
// Registers 1-5 are clobbered.
func emitAssetCopy(m *dex.MethodBuilder, assetPath, dst string) {
	m.NewInstance(1, "java.io.FileInputStream").
		ConstString(2, assetPath).
		InvokeDirect(refFISInit, 1, 2).
		NewInstance(3, "java.io.FileOutputStream").
		ConstString(4, dst).
		InvokeDirect(refFOSInit, 3, 4).
		InvokeVirtual(refReadAll, 1).
		MoveResult(5).
		InvokeVirtual(refFOSWrite, 3, 5).
		InvokeVirtual(refFOSClose, 3)
}

// emitDexLoad appends a DexClassLoader construction over the register
// holding the dex path (pathReg) using scratch registers 6-7.
func emitDexLoad(m *dex.MethodBuilder, pathReg int, odexDir string) {
	m.ConstString(6, odexDir).
		NewInstance(7, "dalvik.system.DexClassLoader").
		InvokeDirect(refDexLoaderInit, 7, pathReg, 6, 0, 0)
}

// addAdSDK wires the Google-Ads-style SDK: extract the ad payload to a
// temporary cache file, load it, delete it (the paper's
// "/data/data/AppPackageName/cache/ad*" pattern).
func (s *Spec) addAdSDK(b *dex.Builder, a *apk.APK, entry *dex.MethodBuilder, cache *payloadCache) error {
	a.Assets["ad_payload.bin"] = cache.ad
	sdk := b.Class("com.google.ads.AdLoader", "java.lang.Object")
	m := sdk.Method("loadAd", dex.ACCPublic, 8, "V")
	tmp := s.cacheDir() + "ad1.dex"
	emitAssetCopy(m, s.assetDir()+"ad_payload.bin", tmp)
	m.ConstString(4, tmp)
	emitDexLoad(m, 4, s.odexDir())
	m.NewInstance(1, "java.io.File").
		InvokeDirect(refFileInit, 1, 4).
		InvokeVirtual(refFileDelete, 1).
		ReturnVoid().Done()
	entry.NewInstance(1, "com.google.ads.AdLoader").
		InvokeVirtual(dex.MethodRef{Class: "com.google.ads.AdLoader", Name: "loadAd",
			Sig: "()V"}, 1)
	return nil
}

// addBaiduSDK wires the remote-fetch ad SDK (Table V): download each
// plugin from the Baidu server and load it. Most apps fetch a single JAR;
// com.classicalmuseumad.cnad fetches a JAR and an APK (paper §V-B).
func (s *Spec) addBaiduSDK(b *dex.Builder, entry *dex.MethodBuilder) {
	urls := []string{s.RemoteURL}
	exts := []string{"jar"}
	if s.RemoteURL2 != "" {
		urls = append(urls, s.RemoteURL2)
		exts = append(exts, "apk")
	}
	sdk := b.Class("com.baidu.mobads.AdView", "java.lang.Object")
	m := sdk.Method("fetchAndLoad", dex.ACCPublic, 10, "V")
	for i, url := range urls {
		dest := fmt.Sprintf("%sbaidu_plugin%d.%s", s.cacheDir(), i, exts[i])
		skip := fmt.Sprintf("offline_%d", i)
		m.NewInstance(1, "java.net.URL").
			ConstString(2, url).
			InvokeDirect(refURLInit, 1, 2).
			InvokeVirtual(refOpenConn, 1).
			MoveResult(3).
			InvokeVirtual(refGetInput, 3).
			MoveResult(4).
			IfEqz(4, skip).
			NewInstance(5, "java.io.FileOutputStream").
			ConstString(8, dest).
			InvokeDirect(refFOSInit, 5, 8).
			InvokeVirtual(refStreamReadAll, 4).
			MoveResult(7).
			InvokeVirtual(refFOSWrite, 5, 7).
			InvokeVirtual(refFOSClose, 5)
		emitDexLoad(m, 8, s.odexDir())
		m.Label(skip)
	}
	m.ReturnVoid().Done()
	entry.NewInstance(2, "com.baidu.mobads.AdView").
		InvokeVirtual(dex.MethodRef{Class: "com.baidu.mobads.AdView", Name: "fetchAndLoad",
			Sig: "()V"}, 2)
}

// addGenericPluginSDK wires a generic third-party plugin loader whose
// payload carries this app's assigned privacy leaks.
func (s *Spec) addGenericPluginSDK(b *dex.Builder, a *apk.APK, entry *dex.MethodBuilder, cache *payloadCache) error {
	payload, err := leakPayloadDex(s.Pkg, s.LeakThird, s.LeakOwn, s.ReadSettings)
	if err != nil {
		return err
	}
	a.Assets["plugin.bin"] = payload
	dst := s.cacheDir() + "plugin.dex"
	sdk := b.Class("com.sdk.plugin.PluginManager", "java.lang.Object")
	m := sdk.Method("installPlugin", dex.ACCPublic, 8, "V")
	emitAssetCopy(m, s.assetDir()+"plugin.bin", dst)
	m.ConstString(4, dst)
	emitDexLoad(m, 4, s.odexDir())
	m.ReturnVoid().Done()
	entry.NewInstance(3, "com.sdk.plugin.PluginManager").
		InvokeVirtual(dex.MethodRef{Class: "com.sdk.plugin.PluginManager",
			Name: "installPlugin", Sig: "()V"}, 3)
	return nil
}

// addOwnUpdater wires a developer-written update loader (own entity).
func (s *Spec) addOwnUpdater(b *dex.Builder, a *apk.APK, entry *dex.MethodBuilder, cache *payloadCache) error {
	payload, err := leakPayloadDex(s.Pkg, s.LeakThird, s.LeakOwn, s.ReadSettings)
	if err != nil {
		return err
	}
	a.Assets["update.bin"] = payload
	dst := android.InternalDir(s.Pkg) + "files/update.dex"
	upd := b.Class(s.Pkg+".Updater", "java.lang.Object")
	m := upd.Method("applyUpdate", dex.ACCPublic, 8, "V")
	emitAssetCopy(m, s.assetDir()+"update.bin", dst)
	m.ConstString(4, dst)
	emitDexLoad(m, 4, s.odexDir())
	m.ReturnVoid().Done()
	entry.NewInstance(4, s.Pkg+".Updater").
		InvokeVirtual(dex.MethodRef{Class: s.Pkg + ".Updater", Name: "applyUpdate",
			Sig: "()V"}, 4)
	return nil
}

// addVulnExternal wires the Table IX pattern: the app caches its loadable
// bytecode on world-writable external storage, then loads it.
func (s *Spec) addVulnExternal(b *dex.Builder, a *apk.APK, entry *dex.MethodBuilder, cache *payloadCache) error {
	payload, err := leakPayloadDex(s.Pkg, s.LeakThird, s.LeakOwn, s.ReadSettings)
	if err != nil {
		return err
	}
	a.Assets["sdk.bin"] = payload
	sdPath := android.ExternalRoot + "im_sdk/jar/" + s.Pkg + ".jar"
	upd := b.Class(s.Pkg+".VoiceSdk", "java.lang.Object")
	m := upd.Method("prepare", dex.ACCPublic, 8, "V")
	emitAssetCopy(m, s.assetDir()+"sdk.bin", sdPath)
	m.ConstString(4, sdPath)
	emitDexLoad(m, 4, s.odexDir())
	m.ReturnVoid().Done()
	entry.NewInstance(5, s.Pkg+".VoiceSdk").
		InvokeVirtual(dex.MethodRef{Class: s.Pkg + ".VoiceSdk", Name: "prepare",
			Sig: "()V"}, 5)
	return nil
}

// addDormantDexLoader plants loader code that is never invoked: the
// static pre-filter sees it, the dynamic analysis never fires.
func addDormantDexLoader(host *dex.ClassBuilder) {
	m := host.Method("prefetchPlugin", dex.ACCPublic, 8, "V")
	m.ConstString(1, "/data/local/tmp/plugin.dex").
		ConstString(2, "/data/local/tmp/odex").
		NewInstance(3, "dalvik.system.DexClassLoader").
		InvokeDirect(refDexLoaderInit, 3, 1, 2, 0, 0).
		ReturnVoid().Done()
}

// addAdNative wires the ad SDK's native renderer load (third party).
func (s *Spec) addAdNative(b *dex.Builder, a *apk.APK, entry *dex.MethodBuilder, cache *payloadCache) error {
	lib, err := cache.lib("libadcore.so", func() (*nativebin.Library, error) {
		return benignLib("libadcore.so", 1)
	})
	if err != nil {
		return err
	}
	a.NativeLibs["libadcore.so"] = lib
	sdk := b.Class("com.google.ads.NativeAdRenderer", "java.lang.Object")
	m := sdk.Method("prepare", dex.ACCPublic, 3, "V")
	m.ConstString(1, "adcore").
		InvokeStatic(refLoadLibrary, 1).
		ReturnVoid().Done()
	entry.NewInstance(6, "com.google.ads.NativeAdRenderer").
		InvokeVirtual(dex.MethodRef{Class: "com.google.ads.NativeAdRenderer",
			Name: "prepare", Sig: "()V"}, 6)
	return nil
}

// addEngineSDK wires a game-engine SDK's native load (third party).
func (s *Spec) addEngineSDK(b *dex.Builder, a *apk.APK, entry *dex.MethodBuilder, cache *payloadCache) error {
	lib, err := cache.lib("libengine.so", func() (*nativebin.Library, error) {
		return benignLib("libengine.so", 2)
	})
	if err != nil {
		return err
	}
	a.NativeLibs["libengine.so"] = lib
	sdk := b.Class("com.unity3d.player.UnityPlayer", "java.lang.Object")
	m := sdk.Method("init", dex.ACCPublic, 3, "V")
	m.ConstString(1, "engine").
		InvokeStatic(refLoadLibrary, 1).
		ReturnVoid().Done()
	entry.NewInstance(6, "com.unity3d.player.UnityPlayer").
		InvokeVirtual(dex.MethodRef{Class: "com.unity3d.player.UnityPlayer",
			Name: "init", Sig: "()V"}, 6)
	return nil
}

// addOwnNative wires a developer-initiated library load (own entity).
func (s *Spec) addOwnNative(a *apk.APK, entry *dex.MethodBuilder, cache *payloadCache) error {
	lib, err := cache.lib("libgame.so", func() (*nativebin.Library, error) {
		return benignLib("libgame.so", 3)
	})
	if err != nil {
		return err
	}
	a.NativeLibs["libgame.so"] = lib
	entry.ConstString(7, "game").
		InvokeStatic(refLoadLibrary, 7)
	return nil
}

// addGatedDexMalware wires a gated malicious bytecode load: each gate
// failing skips the load entirely (Table VIII behaviour).
func (s *Spec) addGatedDexMalware(b *dex.Builder, a *apk.APK, entry *dex.MethodBuilder, payload []byte, name string) error {
	a.Assets[name+".bin"] = payload
	dst := s.cacheDir() + name + ".dex"
	gate := GateNone
	if len(s.Gates) > 0 {
		gate = s.Gates[0]
	}
	skip := "skip_" + name
	emitGate(entry, gate, s.releaseMillis(), skip)
	emitAssetCopy(entry, s.assetDir()+name+".bin", dst)
	entry.ConstString(4, dst)
	emitDexLoad(entry, 4, s.odexDir())
	entry.Label(skip)
	return nil
}

// addChathook wires the native malware: for each malicious file, a gated
// loadLibrary of a distinct hook lib followed by the native attack call.
func (s *Spec) addChathook(b *dex.Builder, a *apk.APK, entry *dex.MethodBuilder, cache *payloadCache) error {
	hook := b.Class("com.hook.Chat", "java.lang.Object")
	hook.NativeMethod("attack", "I")
	files := s.MalwareFiles
	if files == 0 {
		files = 1
	}
	for i := 0; i < files; i++ {
		soname := "libhook.so"
		if i > 0 {
			soname = fmt.Sprintf("libhook%d.so", i+1)
		}
		key := fmt.Sprintf("%s-%d", soname, i)
		libBytes, err := cache.lib(key, func() (*nativebin.Library, error) {
			return chathookLib(soname, i)
		})
		if err != nil {
			return err
		}
		a.NativeLibs[soname] = libBytes
		gate := GateNone
		if i < len(s.Gates) {
			gate = s.Gates[i]
		}
		skip := fmt.Sprintf("skip_hook_%d", i)
		emitGate(entry, gate, s.releaseMillis(), skip)
		entry.ConstString(1, trimLib(soname)).
			InvokeStatic(refLoadLibrary, 1).
			NewInstance(2, "com.hook.Chat").
			InvokeVirtual(dex.MethodRef{Class: "com.hook.Chat", Name: "attack",
				Sig: "()I"}, 2).
			Label(skip)
	}
	return nil
}

func trimLib(soname string) string {
	name := soname
	if len(name) > 3 && name[:3] == "lib" {
		name = name[3:]
	}
	if len(name) > 3 && name[len(name)-3:] == ".so" {
		name = name[:len(name)-3]
	}
	return name
}

func (s *Spec) releaseMillis() int64 {
	if s.ReleaseDate.IsZero() {
		return time.Date(2016, 6, 1, 0, 0, 0, 0, time.UTC).UnixMilli()
	}
	return s.ReleaseDate.UnixMilli()
}

// addReflectionMarker plants a Class.forName compatibility shim —
// realistic reflection usage the detector counts.
func addReflectionMarker(host *dex.ClassBuilder, hostClass string) {
	m := host.Method("resolveCompat", dex.ACCPublic, 4, "V")
	m.ConstString(1, hostClass).
		InvokeStatic(refForName, 1).
		MoveResult(2).
		InvokeVirtual(dex.MethodRef{Class: "java.lang.Class", Name: "getName",
			Sig: "()Ljava/lang/String;"}, 2).
		ReturnVoid().Done()
}
