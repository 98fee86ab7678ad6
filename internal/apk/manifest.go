// Package apk implements the Android application package container used by
// the simulated marketplace: a zip archive holding AndroidManifest.xml,
// classes.dex (SDEX bytecode), assets and native libraries under
// lib/<abi>/. It mirrors the pieces of the real format that DyDroid's
// analyses touch: the manifest (permissions, components, the application
// android:name attribute, minSdkVersion), the bytecode entry, the assets
// folder where packers hide encrypted DEX files, and the native library
// directory that JNI loadLibrary() searches.
package apk

import (
	"encoding/xml"
	"fmt"
	"strings"
)

// Component kinds.
const (
	KindActivity = "activity"
	KindService  = "service"
	KindReceiver = "receiver"
	KindProvider = "provider"
)

// WriteExternalStorage is the permission DyDroid injects when repackaging
// apps so the dynamic analysis can log to external storage (paper §IV).
const WriteExternalStorage = "android.permission.WRITE_EXTERNAL_STORAGE"

// Manifest models AndroidManifest.xml. Attribute names drop the android:
// namespace prefix of the real format; the structure is otherwise
// faithful.
type Manifest struct {
	XMLName     xml.Name    `xml:"manifest"`
	Package     string      `xml:"package,attr"`
	VersionCode int         `xml:"versionCode,attr"`
	MinSDK      int         `xml:"minSdkVersion,attr"`
	TargetSDK   int         `xml:"targetSdkVersion,attr"`
	Permissions []UsesPerm  `xml:"uses-permission"`
	Application Application `xml:"application"`
}

// UsesPerm is one uses-permission element.
type UsesPerm struct {
	Name string `xml:"name,attr"`
}

// Application is the application element. Name is the android:name
// attribute: the Application subclass instantiated before any component —
// the hook point that DEX-encryption packers use as their container class
// (paper §III-D rule 1).
type Application struct {
	Name       string      `xml:"name,attr,omitempty"`
	Label      string      `xml:"label,attr,omitempty"`
	Activities []Component `xml:"activity"`
	Services   []Component `xml:"service"`
	Receivers  []Component `xml:"receiver"`
	Providers  []Component `xml:"provider"`
}

// Component declares one app component.
type Component struct {
	Name     string   `xml:"name,attr"`
	Exported bool     `xml:"exported,attr,omitempty"`
	Main     bool     `xml:"main,attr,omitempty"` // has the LAUNCHER intent filter
	Actions  []Action `xml:"intent-filter>action"`
}

// Action is one intent-filter action.
type Action struct {
	Name string `xml:"name,attr"`
}

// HasPermission reports whether the manifest declares the permission.
func (m *Manifest) HasPermission(perm string) bool {
	for _, p := range m.Permissions {
		if p.Name == perm {
			return true
		}
	}
	return false
}

// AddPermission appends the permission if absent and reports whether the
// manifest changed.
func (m *Manifest) AddPermission(perm string) bool {
	if m.HasPermission(perm) {
		return false
	}
	m.Permissions = append(m.Permissions, UsesPerm{Name: perm})
	return true
}

// Components returns every declared component with its kind.
func (m *Manifest) Components() []DeclaredComponent {
	var out []DeclaredComponent
	for _, c := range m.Application.Activities {
		out = append(out, DeclaredComponent{Kind: KindActivity, Component: c})
	}
	for _, c := range m.Application.Services {
		out = append(out, DeclaredComponent{Kind: KindService, Component: c})
	}
	for _, c := range m.Application.Receivers {
		out = append(out, DeclaredComponent{Kind: KindReceiver, Component: c})
	}
	for _, c := range m.Application.Providers {
		out = append(out, DeclaredComponent{Kind: KindProvider, Component: c})
	}
	return out
}

// DeclaredComponent pairs a component with its manifest element kind.
type DeclaredComponent struct {
	Kind string
	Component
}

// LaunchActivity returns the name of the main (launcher) activity, or ""
// when the app has none — the condition behind the "No activity" row of
// Table II.
func (m *Manifest) LaunchActivity() string {
	for _, a := range m.Application.Activities {
		if a.Main {
			return a.Name
		}
	}
	if len(m.Application.Activities) > 0 {
		return m.Application.Activities[0].Name
	}
	return ""
}

// MarshalXMLBytes renders the manifest document.
func (m *Manifest) MarshalXMLBytes() ([]byte, error) {
	data, err := xml.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("apk: marshal manifest: %w", err)
	}
	return append([]byte(xml.Header), data...), nil
}

// ParseManifest parses an AndroidManifest.xml document.
func ParseManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := xml.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("apk: parse manifest: %w", err)
	}
	if m.Package == "" {
		return nil, fmt.Errorf("apk: manifest has no package attribute")
	}
	return &m, nil
}

// Validate performs structural checks on the manifest.
func (m *Manifest) Validate() error {
	if m.Package == "" {
		return fmt.Errorf("apk: empty package name")
	}
	if strings.ContainsAny(m.Package, " /\\") {
		return fmt.Errorf("apk: invalid package name %q", m.Package)
	}
	for _, c := range m.Components() {
		if c.Name == "" {
			return fmt.Errorf("apk: %s: component with empty name", m.Package)
		}
	}
	return nil
}
