// Packer demonstrates the app-hardening side of DCL (paper §III-D): a
// readable app is packed with Bangcle-style DEX encryption, static
// analysis of the shipped archive goes blind, yet DyDroid's obfuscation
// rules identify the packer and its dynamic engine still intercepts the
// decrypted bytecode the moment the container loads it.
package main

import (
	"fmt"
	"log"

	"github.com/dydroid/dydroid"
	"github.com/dydroid/dydroid/internal/apktool"
	"github.com/dydroid/dydroid/internal/dex"
	"github.com/dydroid/dydroid/internal/obfuscation"
)

func buildApp() *dydroid.APK {
	pkg := "com.tv.remotecontrol"
	b := dex.NewBuilder()
	act := b.Class(pkg+".MainActivity", "android.app.Activity")
	m := act.Method("onCreate", dex.ACCPublic, 3, "V", "Landroid/os/Bundle;")
	m.InvokeVirtual(dex.MethodRef{Class: pkg + ".MainActivity",
		Name: "pairWithTelevision", Sig: "()V"}, 0).
		ReturnVoid().Done()
	act.Method("pairWithTelevision", dex.ACCPublic, 2, "V").ReturnVoid().Done()
	dexBytes, err := dex.Encode(b.File())
	if err != nil {
		log.Fatal(err)
	}
	return &dydroid.APK{
		Manifest: dydroid.Manifest{Package: pkg, MinSDK: 16},
		Dex:      dexBytes,
	}
}

func main() {
	app := buildApp()
	app.Manifest.Application.Activities = []dydroid.Component{
		{Name: app.Manifest.Package + ".MainActivity", Main: true}}

	// Pack it: encrypt classes.dex, inject the container + native decryptor.
	packed, err := obfuscation.Pack(app, 0x6e)
	if err != nil {
		log.Fatal(err)
	}
	packedBytes, err := dydroid.BuildAPK(packed)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== what static analysis sees ==")
	u, err := (apktool.Tool{}).Unpack(packedBytes)
	if err != nil {
		log.Fatal(err)
	}
	for name := range u.Smali() {
		fmt.Printf("  shipped class: %s\n", name)
	}
	fmt.Printf("  original MainActivity visible: %v\n", u.Dex.FindClass(app.Manifest.Package+".MainActivity") != nil)
	fmt.Printf("  manifest still declares:       %s\n", packed.Manifest.LaunchActivity())
	fmt.Printf("  android:name container:        %s\n", packed.Manifest.Application.Name)

	fmt.Println("\n== DyDroid's three-rule packer identification ==")
	var det obfuscation.Detector
	rep := det.AnalyzeUnpacked(u, obfuscation.PreFilter(u))
	fmt.Printf("  DEX encryption detected: %v (native decryptor present: %v)\n",
		rep.DEXEncryption, rep.Native)

	fmt.Println("\n== dynamic analysis still wins ==")
	an := dydroid.NewAnalyzer(dydroid.Options{Seed: 1})
	res, err := an.AnalyzeAPK(packedBytes)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  status: %s\n", res.Status)
	for _, ev := range res.Events {
		fmt.Printf("  intercepted %s load: %s (%d bytes, call site %s)\n",
			ev.Kind, ev.Path, len(ev.Intercepted), ev.CallSite)
	}
	// The intercepted payload decodes to the original bytecode.
	for _, ev := range res.Events {
		if ev.Kind != dydroid.KindDex || ev.Intercepted == nil {
			continue
		}
		df, err := dex.Decode(ev.Intercepted)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  decrypted payload contains: ")
		for i, c := range df.Classes {
			if i > 0 {
				fmt.Print(", ")
			}
			fmt.Print(c.Name)
		}
		fmt.Println(" — the original app, recovered")
	}
}
