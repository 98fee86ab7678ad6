package vm

import (
	"fmt"
	"strings"

	"github.com/dydroid/dydroid/internal/android"
	"github.com/dydroid/dydroid/internal/dex"
	"github.com/dydroid/dydroid/internal/netsim"
)

// connectionClasses are URLConnection and its subclasses; all of them are
// instrumented by the download tracker (paper §III-B Table I).
var connectionClasses = map[string]bool{
	"java.net.URLConnection":      true,
	"java.net.HttpURLConnection":  true,
	"java.net.HttpsURLConnection": true,
	"java.net.FtpURLConnection":   true,
}

// inputStreamClasses are InputStream and its wrappers.
var inputStreamClasses = map[string]bool{
	"java.io.InputStream":          true,
	"java.io.FileInputStream":      true,
	"java.io.BufferedInputStream":  true,
	"java.io.ByteArrayInputStream": true,
	"java.io.Reader":               true,
}

// outputStreamClasses are OutputStream and its wrappers.
var outputStreamClasses = map[string]bool{
	"java.io.OutputStream":          true,
	"java.io.FileOutputStream":      true,
	"java.io.BufferedOutputStream":  true,
	"java.io.ByteArrayOutputStream": true,
	"java.io.Writer":                true,
}

// systemInvoke dispatches framework methods. It returns handled=false when
// the reference is not a system API, letting the interpreter resolve app
// classes.
func (m *VM) systemInvoke(ref dex.MethodRef, args []Value) (Value, bool, error) {
	if ref.Class == "java.lang.Object" && ref.Name == "<init>" {
		return Null, true, nil
	}
	if e := entryPoint(ref.Class, ref.Name); e != nil {
		return Null, true, e.load(m, e.API, args)
	}
	switch {
	case (ref.Class == "java.lang.ClassLoader" || ref.Class == string(LoaderDex) ||
		ref.Class == string(LoaderPath)) && ref.Name == "loadClass":
		return m.sysLoadClass(args)

	case ref.Class == "java.lang.Class":
		return m.sysClassMethod(ref.Name, args)
	case ref.Class == "java.lang.reflect.Method" && ref.Name == "invoke":
		return m.sysReflectInvoke(args)

	case ref.Class == "java.lang.System":
		return m.sysSystem(ref.Name, args)
	case ref.Class == "java.lang.Runtime":
		return m.sysRuntime(ref.Name, args)
	case ref.Class == "java.lang.Thread" && ref.Name == "sleep":
		return Null, true, nil

	case ref.Class == "java.io.File":
		return m.sysFile(ref.Name, args)
	case inputStreamClasses[ref.Class]:
		return m.sysInputStream(ref.Class, ref.Name, args)
	case outputStreamClasses[ref.Class]:
		return m.sysOutputStream(ref.Class, ref.Name, args)

	case ref.Class == "java.net.URL":
		return m.sysURL(ref.Name, args)
	case connectionClasses[ref.Class]:
		return m.sysConnection(ref.Class, ref.Name, args)

	case ref.Class == "android.telephony.TelephonyManager":
		return m.sysTelephony(ref.Name, args)
	case ref.Class == "android.location.LocationManager":
		return m.sysLocation(ref.Name, args)
	case ref.Class == "android.accounts.AccountManager" && ref.Name == "getAccounts":
		return StrVal(strings.Join(m.Device.Accounts, ",")), true, nil
	case ref.Class == "android.content.pm.PackageManager":
		return m.sysPackageManager(ref.Name, args)
	case ref.Class == "android.content.ContentResolver" && ref.Name == "query":
		return m.sysResolverQuery(args)
	case ref.Class == "android.provider.Settings" && ref.Name == "getInt":
		if argString(args, 0) == "airplane_mode_on" && m.Device.AirplaneModeOn() {
			return IntVal(1), true, nil
		}
		return IntVal(0), true, nil
	case ref.Class == "android.net.ConnectivityManager" && ref.Name == "getActiveNetworkInfo":
		if m.Device.NetworkAvailable() {
			return RefVal(m.newObject("android.net.NetworkInfo")), true, nil
		}
		return Null, true, nil

	case ref.Class == "android.content.Context" || ref.Class == "android.app.Activity" ||
		ref.Class == "android.app.Application":
		return m.sysContext(ref.Name, args)

	case ref.Class == "android.telephony.SmsManager" && ref.Name == "sendTextMessage":
		m.event("sms", argString(args, 1), argString(args, 2))
		return Null, true, nil
	case ref.Class == "android.util.Log":
		m.event("log", argString(args, 0), argString(args, 1))
		return Null, true, nil
	case ref.Class == "org.apache.http.impl.client.DefaultHttpClient" && ref.Name == "execute":
		m.event("transmit", "http-client", argString(args, 1))
		return Null, true, nil
	case ref.Class == "android.app.NotificationManager" && ref.Name == "notify":
		m.event("notification-ad", argString(args, 1), "")
		return Null, true, nil
	case ref.Class == "android.app.ShortcutManager" && ref.Name == "addShortcut":
		m.event("shortcut", argString(args, 1), "")
		return Null, true, nil
	case ref.Class == "android.provider.Browser" && ref.Name == "setHomepage":
		m.event("homepage", argString(args, 0), "")
		return Null, true, nil
	}
	// Unrecognized framework namespaces resolve to a harmless no-op so app
	// code linking against richer APIs still runs; app-package classes
	// fall through to the interpreter.
	if isFrameworkClass(ref.Class) {
		return Null, true, nil
	}
	return Null, false, nil
}

// isFrameworkClass reports whether the class lives in a framework
// namespace the VM stubs out when no specific behaviour is modeled.
func isFrameworkClass(name string) bool {
	for _, p := range []string{"java.", "javax.", "android.", "dalvik.", "org.apache."} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

func argString(args []Value, i int) string {
	if i >= len(args) {
		return ""
	}
	return args[i].AsString()
}

func argRef(args []Value, i int) *Object {
	if i >= len(args) || args[i].Kind != KindRef {
		return nil
	}
	return args[i].Ref
}

// --- class loaders -------------------------------------------------------

func parentLoader(args []Value, idx int) *ClassLoader {
	if o := argRef(args, idx); o != nil {
		if cl, ok := o.Native.(*ClassLoader); ok {
			return cl
		}
	}
	return nil
}

// sysLoadClass implements ClassLoader.loadClass(name), returning a
// java.lang.Class object.
func (m *VM) sysLoadClass(args []Value) (Value, bool, error) {
	self := argRef(args, 0)
	name := argString(args, 1)
	var found *dex.Class
	if self != nil {
		if cl, ok := self.Native.(*ClassLoader); ok {
			found = cl.FindClass(name)
		}
	}
	if found == nil {
		found = m.resolveClass(name)
	}
	if found == nil {
		return Null, true, fmt.Errorf("%w: ClassNotFoundException: %s", ErrAppCrash, name)
	}
	obj := m.newObject("java.lang.Class")
	obj.Native = found
	return RefVal(obj), true, nil
}

// sysClassMethod implements Class.forName / newInstance / getMethod.
func (m *VM) sysClassMethod(name string, args []Value) (Value, bool, error) {
	switch name {
	case "forName":
		cname := argString(args, 0)
		c := m.resolveClass(cname)
		if c == nil {
			return Null, true, fmt.Errorf("%w: ClassNotFoundException: %s", ErrAppCrash, cname)
		}
		obj := m.newObject("java.lang.Class")
		obj.Native = c
		return RefVal(obj), true, nil
	case "newInstance":
		self := argRef(args, 0)
		c, ok := classOf(self)
		if !ok {
			return Null, true, fmt.Errorf("%w: newInstance on non-Class", ErrAppCrash)
		}
		inst := m.newObject(c.Name)
		if init := c.FindMethod("<init>", ""); init != nil {
			if _, err := m.interpret(c, init, []Value{RefVal(inst)}); err != nil {
				return Null, true, err
			}
		}
		return RefVal(inst), true, nil
	case "getMethod", "getDeclaredMethod":
		self := argRef(args, 0)
		c, ok := classOf(self)
		if !ok {
			return Null, true, fmt.Errorf("%w: getMethod on non-Class", ErrAppCrash)
		}
		mname := argString(args, 1)
		mm := c.FindMethod(mname, "")
		if mm == nil {
			return Null, true, fmt.Errorf("%w: NoSuchMethodException: %s.%s", ErrAppCrash, c.Name, mname)
		}
		obj := m.newObject("java.lang.reflect.Method")
		obj.Native = &reflectedMethod{cls: c, method: mm}
		return RefVal(obj), true, nil
	case "getName":
		self := argRef(args, 0)
		if c, ok := classOf(self); ok {
			return StrVal(c.Name), true, nil
		}
		return Null, true, fmt.Errorf("%w: getName on non-Class", ErrAppCrash)
	}
	return Null, true, nil
}

type reflectedMethod struct {
	cls    *dex.Class
	method *dex.Method
}

func classOf(o *Object) (*dex.Class, bool) {
	if o == nil {
		return nil, false
	}
	c, ok := o.Native.(*dex.Class)
	return c, ok
}

// sysReflectInvoke implements Method.invoke(receiver, args...).
func (m *VM) sysReflectInvoke(args []Value) (Value, bool, error) {
	self := argRef(args, 0)
	if self == nil {
		return Null, true, fmt.Errorf("%w: Method.invoke on null", ErrAppCrash)
	}
	rm, ok := self.Native.(*reflectedMethod)
	if !ok {
		return Null, true, fmt.Errorf("%w: Method.invoke on non-Method", ErrAppCrash)
	}
	callArgs := args[1:]
	if rm.method.Flags&dex.ACCNative != 0 {
		v, err := m.jniInvoke(rm.cls, rm.method, callArgs)
		return v, true, err
	}
	v, err := m.interpret(rm.cls, rm.method, callArgs)
	return v, true, err
}

// --- System / Runtime (JNI entry points) ---------------------------------

func (m *VM) sysSystem(name string, args []Value) (Value, bool, error) {
	switch name {
	case "currentTimeMillis":
		return IntVal(m.Device.Now().UnixMilli()), true, nil
	case "getProperty":
		return StrVal(""), true, nil
	}
	return Null, true, nil
}

func (m *VM) sysRuntime(name string, args []Value) (Value, bool, error) {
	switch name {
	case "getRuntime":
		return RefVal(m.newObject("java.lang.Runtime")), true, nil
	case "exec":
		m.event("exec", argString(args, 1), "")
		return Null, true, nil
	}
	return Null, true, nil
}

// --- java.io.File ---------------------------------------------------------

func (m *VM) sysFile(name string, args []Value) (Value, bool, error) {
	self := argRef(args, 0)
	switch name {
	case "<init>":
		path := argString(args, 1)
		if self == nil {
			return Null, true, fmt.Errorf("%w: File.<init> without receiver", ErrAppCrash)
		}
		self.SetField("path", StrVal(path))
		self.Native = m.Factory.NewFile(path)
		return Null, true, nil
	case "getPath", "getAbsolutePath":
		return self.Field("path"), true, nil
	case "exists":
		if m.Device.Storage.Exists(self.Field("path").AsString()) {
			return IntVal(1), true, nil
		}
		return IntVal(0), true, nil
	case "delete":
		path := self.Field("path").AsString()
		if m.Hooks.OnFileDelete(path) {
			// Blocked by the interception queue: silently report failure,
			// exactly as the paper's modified java.io.File does.
			return IntVal(0), true, nil
		}
		if err := m.Device.Storage.Delete(path, m.App.Package); err != nil {
			return IntVal(0), true, nil
		}
		return IntVal(1), true, nil
	case "renameTo":
		oldPath := self.Field("path").AsString()
		var newPath string
		if o := argRef(args, 1); o != nil {
			newPath = o.Field("path").AsString()
		} else {
			newPath = argString(args, 1)
		}
		if m.Hooks.OnFileRename(oldPath, newPath) {
			return IntVal(0), true, nil
		}
		if err := m.Device.Storage.Rename(oldPath, newPath, m.App.Package, m.App.HasExternalWrite()); err != nil {
			return IntVal(0), true, nil
		}
		if fv, ok := self.Native.(*netsim.FileValue); ok {
			fv.CopyTo(newPath) // File -> File flow
		}
		return IntVal(1), true, nil
	case "length":
		_, size, err := m.Device.Storage.Stat(self.Field("path").AsString())
		if err != nil {
			return IntVal(0), true, nil
		}
		return IntVal(size), true, nil
	}
	return Null, true, nil
}

// --- streams ---------------------------------------------------------------

func (m *VM) sysInputStream(class, name string, args []Value) (Value, bool, error) {
	self := argRef(args, 0)
	switch name {
	case "<init>":
		if self == nil {
			return Null, true, fmt.Errorf("%w: %s.<init> without receiver", ErrAppCrash, class)
		}
		switch class {
		case "java.io.FileInputStream":
			// Argument: a path string or a File object. Opening through a
			// File object emits the File -> InputStream flow.
			if fo := argRef(args, 1); fo != nil {
				path := fo.Field("path").AsString()
				data, err := m.Device.Storage.ReadFile(path)
				if err != nil {
					return Null, true, fmt.Errorf("%w: FileNotFoundException: %s", ErrAppCrash, path)
				}
				if fv, ok := fo.Native.(*netsim.FileValue); ok {
					self.Native = fv.Open(data)
				} else {
					self.Native = m.Factory.NewFile(path).Open(data)
				}
			} else {
				path := argString(args, 1)
				data, err := m.Device.Storage.ReadFile(path)
				if err != nil {
					return Null, true, fmt.Errorf("%w: FileNotFoundException: %s", ErrAppCrash, path)
				}
				self.Native = m.Factory.NewFile(path).Open(data)
			}
		case "java.io.BufferedInputStream":
			inner := argRef(args, 1)
			if in, ok := nativeStream(inner); ok {
				self.Native = in.Wrap() // InputStream -> InputStream
			}
		case "java.io.ByteArrayInputStream":
			if buf := argRef(args, 1); buf != nil {
				if b, ok := buf.Native.(*netsim.Buffer); ok {
					self.Native = b.AsInputStream() // Buffer -> InputStream
				}
			}
		}
		return Null, true, nil
	case "read":
		in, ok := nativeStream(self)
		if !ok {
			return Null, true, fmt.Errorf("%w: read on unopened stream", ErrAppCrash)
		}
		n := 4096
		if len(args) > 1 {
			n = int(args[1].AsInt())
		}
		buf := in.Read(n)
		if buf == nil {
			return Null, true, nil // EOF -> null buffer; apps branch with if-eqz
		}
		obj := m.newObject("byte[]")
		obj.Native = buf
		return RefVal(obj), true, nil
	case "readAll":
		in, ok := nativeStream(self)
		if !ok {
			return Null, true, fmt.Errorf("%w: readAll on unopened stream", ErrAppCrash)
		}
		buf := in.ReadAll()
		obj := m.newObject("byte[]")
		obj.Native = buf
		return RefVal(obj), true, nil
	case "close":
		return Null, true, nil
	}
	return Null, true, nil
}

func nativeStream(o *Object) (*netsim.InputStream, bool) {
	if o == nil {
		return nil, false
	}
	in, ok := o.Native.(*netsim.InputStream)
	return in, ok
}

func (m *VM) sysOutputStream(class, name string, args []Value) (Value, bool, error) {
	self := argRef(args, 0)
	switch name {
	case "<init>":
		if self == nil {
			return Null, true, fmt.Errorf("%w: %s.<init> without receiver", ErrAppCrash, class)
		}
		path := argString(args, 1)
		if fo := argRef(args, 1); fo != nil {
			if inner, ok := fo.Native.(*netsim.OutputStream); ok {
				// BufferedOutputStream over another stream: fresh stream
				// that drains to the inner one on close.
				out := m.Factory.NewOutputStream(inner.Path)
				self.Native = out
				self.SetField("inner", RefVal(fo))
				return Null, true, nil
			}
			path = fo.Field("path").AsString()
		}
		self.Native = m.Factory.NewOutputStream(path)
		return Null, true, nil
	case "write":
		out, ok := nativeOut(self)
		if !ok {
			return Null, true, fmt.Errorf("%w: write on unopened stream", ErrAppCrash)
		}
		if buf := argRef(args, 1); buf != nil {
			if b, ok := buf.Native.(*netsim.Buffer); ok {
				out.Write(b) // Buffer -> OutputStream
				return Null, true, nil
			}
		}
		// Writing a raw string: wrap it in a fresh buffer first.
		b := m.Factory.NewBuffer([]byte(argString(args, 1)))
		out.Write(b)
		return Null, true, nil
	case "writeString":
		out, ok := nativeOut(self)
		if !ok {
			return Null, true, fmt.Errorf("%w: writeString on unopened stream", ErrAppCrash)
		}
		b := m.Factory.NewBuffer([]byte(argString(args, 1)))
		out.Write(b)
		return Null, true, nil
	case "toByteArray":
		out, ok := nativeOut(self)
		if !ok {
			return Null, true, fmt.Errorf("%w: toByteArray on unopened stream", ErrAppCrash)
		}
		obj := m.newObject("byte[]")
		obj.Native = out.ToBuffer() // OutputStream -> Buffer
		return RefVal(obj), true, nil
	case "close", "flush":
		out, ok := nativeOut(self)
		if !ok {
			return Null, true, nil
		}
		if innerRef := self.Field("inner"); innerRef.Kind == KindRef {
			if inner, ok2 := nativeOut(innerRef.Ref); ok2 {
				out.DrainTo(inner) // OutputStream -> OutputStream
				return Null, true, nil
			}
		}
		if name == "close" && out.Path != "" {
			out.CloseToFile() // OutputStream -> File
			if err := m.Device.Storage.WriteFile(out.Path, out.Data, m.App.Package, m.App.HasExternalWrite()); err != nil {
				return Null, true, fmt.Errorf("%w: IOException: %w", ErrAppCrash, err)
			}
		}
		return Null, true, nil
	}
	return Null, true, nil
}

func nativeOut(o *Object) (*netsim.OutputStream, bool) {
	if o == nil {
		return nil, false
	}
	out, ok := o.Native.(*netsim.OutputStream)
	return out, ok
}

// --- networking -------------------------------------------------------------

func (m *VM) sysURL(name string, args []Value) (Value, bool, error) {
	self := argRef(args, 0)
	switch name {
	case "<init>":
		if self == nil {
			return Null, true, fmt.Errorf("%w: URL.<init> without receiver", ErrAppCrash)
		}
		self.Native = m.Factory.NewURL(argString(args, 1))
		return Null, true, nil
	case "openConnection":
		if self == nil || self.Native == nil {
			return Null, true, fmt.Errorf("%w: openConnection on null URL", ErrAppCrash)
		}
		conn := m.newObject("java.net.HttpURLConnection")
		conn.Native = self.Native
		return RefVal(conn), true, nil
	case "openStream":
		// Shortcut equal to openConnection().getInputStream().
		return m.connInputStream(self)
	}
	return Null, true, nil
}

func (m *VM) sysConnection(class, name string, args []Value) (Value, bool, error) {
	self := argRef(args, 0)
	switch name {
	case "getInputStream":
		return m.connInputStream(self)
	case "connect":
		return Null, true, nil
	case "write":
		m.event("transmit", connURL(self), argString(args, 1))
		return Null, true, nil
	}
	_ = class
	return Null, true, nil
}

func connURL(o *Object) string {
	if o != nil {
		if u, ok := o.Native.(*netsim.URLValue); ok {
			return u.Spec
		}
	}
	return ""
}

func (m *VM) connInputStream(self *Object) (Value, bool, error) {
	if self == nil {
		return Null, true, fmt.Errorf("%w: getInputStream on null connection", ErrAppCrash)
	}
	u, ok := self.Native.(*netsim.URLValue)
	if !ok {
		return Null, true, fmt.Errorf("%w: connection has no URL", ErrAppCrash)
	}
	if m.Network == nil {
		return Null, true, fmt.Errorf("%w: UnknownHostException: %s", ErrAppCrash, u.Spec)
	}
	in, err := m.Network.OpenStream(m.Factory, u)
	if err != nil {
		// Network failures surface as IOExceptions apps may catch; our
		// generated apps branch on a null stream instead, mirroring
		// defensive SDK code.
		return Null, true, nil
	}
	obj := m.newObject("java.io.InputStream")
	obj.Native = in
	return RefVal(obj), true, nil
}

// --- privacy sources ---------------------------------------------------------

func (m *VM) sysTelephony(name string, args []Value) (Value, bool, error) {
	switch name {
	case "getDeviceId":
		return StrVal(m.Device.IMEI), true, nil
	case "getSubscriberId":
		return StrVal(m.Device.IMSI), true, nil
	case "getSimSerialNumber":
		return StrVal(m.Device.ICCID), true, nil
	case "getLine1Number":
		return StrVal(m.Device.PhoneNumber), true, nil
	}
	return Null, true, nil
}

func (m *VM) sysLocation(name string, args []Value) (Value, bool, error) {
	switch name {
	case "getLastKnownLocation":
		if !m.Device.LocationEnabled() {
			return Null, true, nil
		}
		return StrVal("42.0565,-87.6753"), true, nil
	case "isProviderEnabled":
		if m.Device.LocationEnabled() {
			return IntVal(1), true, nil
		}
		return IntVal(0), true, nil
	}
	return Null, true, nil
}

func (m *VM) sysPackageManager(name string, args []Value) (Value, bool, error) {
	switch name {
	case "getInstalledApplications", "getInstalledPackages":
		return StrVal(strings.Join(m.Device.Packages.InstalledPackages(), ",")), true, nil
	}
	return Null, true, nil
}

func (m *VM) sysResolverQuery(args []Value) (Value, bool, error) {
	uri := argString(args, 1)
	if dt, ok := android.ProviderType(uri); ok {
		return StrVal("cursor:" + string(dt)), true, nil
	}
	return Null, true, nil
}

// --- context ------------------------------------------------------------------

func (m *VM) sysContext(name string, args []Value) (Value, bool, error) {
	switch name {
	case "getPackageName":
		return StrVal(m.App.Package), true, nil
	case "getFilesDir":
		return StrVal(android.InternalDir(m.App.Package) + "files"), true, nil
	case "getCacheDir":
		return StrVal(android.InternalDir(m.App.Package) + "cache"), true, nil
	case "getExternalFilesDir":
		return StrVal(android.ExternalRoot + "Android/data/" + m.App.Package), true, nil
	case "getAssets":
		return StrVal(android.InternalDir(m.App.Package) + "assets"), true, nil
	case "<init>", "onCreate", "attachBaseContext", "setContentView":
		return Null, true, nil
	}
	return Null, true, nil
}
