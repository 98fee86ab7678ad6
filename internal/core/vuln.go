package core

import (
	"github.com/dydroid/dydroid/internal/android"
	"github.com/dydroid/dydroid/internal/vm"
)

// AnalyzeVulnerabilities applies the Table IX rules to the logged DCL
// events:
//
//   - a load from external storage is a code-injection risk when the app
//     supports OS versions below 4.4 (minSdkVersion < 19), where any app
//     can rewrite the file — unless it goes through the digest-pinning
//     vm.SecureLoaderClass, which refuses a rewritten file before any of
//     its bytes run (the mitigation the paper cites);
//   - a load from the private internal storage of another application
//     trusts a file the developer does not control (the Adobe AIR
//     libCore.so pattern).
//
// System-library loads are exempt.
func AnalyzeVulnerabilities(appPkg string, minSDK int, events []*DCLEvent) []Vulnerability {
	var out []Vulnerability
	seen := make(map[Vulnerability]bool)
	add := func(v Vulnerability) {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	for _, ev := range events {
		if ev.SystemLib {
			continue
		}
		switch {
		case android.IsExternal(ev.Path):
			if minSDK < android.KitKatAPILevel && ev.API != vm.SecureLoaderClass {
				add(Vulnerability{Kind: VulnExternalStorage, Code: ev.Kind, Path: ev.Path})
			}
		default:
			owner := android.OwnerOfInternalPath(ev.Path)
			if owner != "" && owner != appPkg {
				add(Vulnerability{
					Kind: VulnOtherAppInternal, Code: ev.Kind,
					Path: ev.Path, OwnerPackage: owner,
				})
			}
		}
	}
	return out
}
