package droidnative

import (
	"fmt"
	"testing"

	"github.com/dydroid/dydroid/internal/dex"
	"github.com/dydroid/dydroid/internal/mail"
	"github.com/dydroid/dydroid/internal/nativebin"
)

// stealerDex builds a Swiss-code-monkeys-style payload: read identifiers,
// loop over commands, transmit.
func stealerDex(extraNoise int) *mail.Program {
	b := dex.NewBuilder()
	cls := b.Class("com.scm.Service", "java.lang.Object")
	m := cls.Method("run", dex.ACCPublic, 8, "V")
	m.NewInstance(1, "android.telephony.TelephonyManager").
		InvokeVirtual(dex.MethodRef{Class: "android.telephony.TelephonyManager",
			Name: "getDeviceId", Sig: "()Ljava/lang/String;"}, 1).
		MoveResult(2).
		InvokeVirtual(dex.MethodRef{Class: "android.telephony.TelephonyManager",
			Name: "getLine1Number", Sig: "()Ljava/lang/String;"}, 1).
		MoveResult(3).
		Const(4, 0).
		Const(5, 3).
		Label("loop").
		IfGe(4, 5, "done").
		InvokeVirtual(dex.MethodRef{Class: "com.scm.Service", Name: "exec", Sig: "()V"}, 0).
		Const(6, 1).
		Add(4, 4, 6).
		Goto("loop").
		Label("done").
		NewInstance(7, "org.apache.http.impl.client.DefaultHttpClient").
		InvokeVirtual(dex.MethodRef{Class: "org.apache.http.impl.client.DefaultHttpClient",
			Name: "execute", Sig: "(Ljava/lang/String;)V"}, 7, 2).
		ReturnVoid().
		Done()
	ex := cls.Method("exec", dex.ACCPublic, 4, "V")
	for i := 0; i < extraNoise; i++ {
		ex.Const(1, int64(i))
	}
	ex.ReturnVoid().Done()
	return mail.FromDex(b.File())
}

// benignDex is structurally different app code.
func benignDex() *mail.Program {
	b := dex.NewBuilder()
	cls := b.Class("com.app.Calc", "java.lang.Object")
	m := cls.Method("sum", dex.ACCPublic, 6, "I", "I")
	m.Const(2, 0).
		Const(3, 0).
		Label("top").
		IfGe(3, 1, "end").
		Add(2, 2, 3).
		Const(4, 1).
		Add(3, 3, 4).
		Goto("top").
		Label("end").
		Return(2).
		Done()
	cls.Method("helper", dex.ACCPublic, 2, "V").ReturnVoid().Done()
	return mail.FromDex(b.File())
}

func TestClassifyDetectsVariant(t *testing.T) {
	var c Classifier
	if err := c.Train("Swiss code monkeys", stealerDex(0)); err != nil {
		t.Fatal(err)
	}
	// A variant differing only in the noise function body (the paper:
	// variants "only differ in the memory addresses").
	det := c.Classify(stealerDex(0))
	if !det.Malware || det.Family != "Swiss code monkeys" {
		t.Fatalf("identical sample not detected: %+v", det)
	}
	if det.Score < 0.99 {
		t.Fatalf("identical sample score = %f", det.Score)
	}
}

func TestClassifyRejectsBenign(t *testing.T) {
	var c Classifier
	if err := c.Train("Swiss code monkeys", stealerDex(0)); err != nil {
		t.Fatal(err)
	}
	det := c.Classify(benignDex())
	if det.Malware {
		t.Fatalf("benign flagged: %+v", det)
	}
	if det.Family != "" {
		t.Fatalf("non-malware detection carries family %q", det.Family)
	}
}

func TestClassifyNativeFamily(t *testing.T) {
	mk := func(host string) *mail.Program {
		b := nativebin.NewBuilder("libhook.so", "arm")
		target := b.CString("com.tencent.mobileqq")
		h := b.CString(host)
		b.Symbol("Java_com_mal_Hook_attack").
			MovI(0, 0).
			Svc(nativebin.SysSetuid).
			MovI(0, target).
			Svc(nativebin.SysFindProc).
			CmpI(0, 0).
			Blt("out").
			Svc(nativebin.SysPtrace).
			MovI(0, h).
			Svc(nativebin.SysConnect).
			Label("out").
			Ret()
		return mail.FromNative(b.Build())
	}
	var c Classifier
	if err := c.Train("Chathook ptrace", mk("c2.example.com")); err != nil {
		t.Fatal(err)
	}
	// Variant with a different C2 host (data change, same code shape).
	det := c.Classify(mk("other.example.org"))
	if !det.Malware || det.Family != "Chathook ptrace" {
		t.Fatalf("native variant not detected: %+v", det)
	}
}

func TestThresholdSweep(t *testing.T) {
	// A partially-matching sample: half the training program.
	var c Classifier
	if err := c.Train("fam", stealerDex(0)); err != nil {
		t.Fatal(err)
	}
	// Build a program with only the noise function (small overlap).
	b := dex.NewBuilder()
	b.Class("com.scm.Service", "java.lang.Object").
		Method("exec", dex.ACCPublic, 4, "V").ReturnVoid().Done()
	partial := mail.FromDex(b.File())

	det := c.Classify(partial)
	if det.Malware {
		t.Fatalf("partial sample flagged at 90%%: %+v", det)
	}
	c.Threshold = det.Score - 0.01
	if c.Threshold > 0 {
		det2 := c.Classify(partial)
		if !det2.Malware {
			t.Fatalf("lowered threshold %f did not flag score %f", c.Threshold, det2.Score)
		}
	}
}

func TestTrainValidation(t *testing.T) {
	var c Classifier
	if err := c.Train("", stealerDex(0)); err == nil {
		t.Fatal("empty family accepted")
	}
	if err := c.Train("x", &mail.Program{}); err == nil {
		t.Fatal("empty program accepted")
	}
	if len(c.samples) != 0 {
		t.Fatal("failed training mutated classifier")
	}
}

func TestMultiFamilyBestMatch(t *testing.T) {
	var c Classifier
	if err := c.Train("dex-fam", stealerDex(0)); err != nil {
		t.Fatal(err)
	}
	nb := nativebin.NewBuilder("libz.so", "arm")
	nb.Symbol("f").MovI(0, 1).Svc(nativebin.SysPtrace).Ret()
	if err := c.Train("native-fam", mail.FromNative(nb.Build())); err != nil {
		t.Fatal(err)
	}
	det := c.Classify(stealerDex(0))
	if det.Family != "dex-fam" {
		t.Fatalf("best family = %q, want dex-fam (score %f)", det.Family, det.Score)
	}
}

func TestUntrainedClassifierFlagsNothing(t *testing.T) {
	var c Classifier
	if det := c.Classify(stealerDex(0)); det.Malware {
		t.Fatal("untrained classifier flagged a sample")
	}
}

func TestScaleManyVariants(t *testing.T) {
	// Train on 19 families x a few samples (miniature of the paper's
	// 1,240-sample training set) and verify no cross-family confusion on
	// exact variants.
	var c Classifier
	progs := make(map[string]*mail.Program)
	for i := 0; i < 19; i++ {
		fam := fmt.Sprintf("family-%02d", i)
		p := stealerDex(i + 1) // structurally distinct noise sizes
		progs[fam] = p
		if err := c.Train(fam, p); err != nil {
			t.Fatal(err)
		}
	}
	for fam, p := range progs {
		det := c.Classify(p)
		if !det.Malware {
			t.Fatalf("family %s variant not detected", fam)
		}
	}
}
