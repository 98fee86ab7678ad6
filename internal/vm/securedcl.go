package vm

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
)

// SecureLoaderClass is the drop-in secure class loader of Falsina et
// al.'s Grab'n Run (ACSAC 2015), which the paper cites as the proposed
// fix for the Table IX code-injection vulnerabilities: the developer
// pins the expected digest of the code to be loaded, and the loader
// refuses anything else. Constructor signature:
//
//	SecureDexClassLoader(dexPath, optimizedDir, libSearchPath, parent,
//	                     expectedSHA256Hex)
//
// The construction still fires the DCL hook, with SecureLoaderClass as
// its LoaderKind — DyDroid observes secure loads like any other — but a
// digest mismatch raises a SecurityException before any byte of the file
// is interpreted.
const SecureLoaderClass = "it.necst.grabnrun.SecureDexClassLoader"

// verifyPinned raises the SecurityException of a pinned load: every file
// on dexPath must hash to the expected hex SHA-256.
func (m *VM) verifyPinned(dexPath, expected string) error {
	expected = strings.ToLower(expected)
	for _, path := range strings.Split(dexPath, ":") {
		if path == "" {
			continue
		}
		data, err := m.Device.Storage.ReadFile(path)
		if err != nil {
			return fmt.Errorf("%w: %w", ErrAppCrash, err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != expected {
			return fmt.Errorf("%w: SecurityException: %s digest %s does not match pinned %s",
				ErrAppCrash, path, got[:12], truncDigest(expected))
		}
	}
	return nil
}

func truncDigest(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	return d
}
