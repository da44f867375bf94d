package faultfs

import (
	"errors"
	"io/fs"
	"os"
	"testing"
)

func writeAll(t *testing.T, fsys FS, name string, b []byte, flag int) File {
	t.Helper()
	f, err := fsys.OpenFile(name, flag, 0o644)
	if err != nil {
		t.Fatalf("open %s: %v", name, err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatalf("write %s: %v", name, err)
	}
	return f
}

func TestMemFSVolatileVsDurable(t *testing.T) {
	m := NewMemFS()
	if err := m.MkdirAll("d", 0o755); err != nil {
		t.Fatal(err)
	}
	f := writeAll(t, m, "d/a", []byte("hello"), os.O_CREATE|os.O_WRONLY|os.O_APPEND)
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	// File content is durable but the creation is not: without a
	// directory sync a crash loses the whole file.
	m.Clone().Crash() // sanity: Crash on a clone leaves the original alone
	got, err := m.ReadFile("d/a")
	if err != nil || string(got) != "hello" {
		t.Fatalf("original mutated by clone crash: %q, %v", got, err)
	}
	c := m.Clone()
	c.Crash()
	if _, err := c.ReadFile("d/a"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("un-dir-synced file survived crash: %v", err)
	}

	// Dir-sync the creation, append more without fsync: crash keeps only
	// the durable prefix.
	if err := m.SyncDir("d"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte(" world")); err != nil {
		t.Fatal(err)
	}
	if got, _ := m.ReadFile("d/a"); string(got) != "hello world" {
		t.Fatalf("volatile read %q", got)
	}
	c = m.Clone()
	c.Crash()
	if got, err := c.ReadFile("d/a"); err != nil || string(got) != "hello" {
		t.Fatalf("crash kept %q, %v; want durable prefix \"hello\"", got, err)
	}

	// Sync the tail; now the full content survives.
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	c = m.Clone()
	c.Crash()
	if got, _ := c.ReadFile("d/a"); string(got) != "hello world" {
		t.Fatalf("crash after sync kept %q", got)
	}
}

func TestMemFSRemoveLimbo(t *testing.T) {
	m := NewMemFS()
	m.MkdirAll("d", 0o755)
	f := writeAll(t, m, "d/a", []byte("x"), os.O_CREATE|os.O_WRONLY)
	f.Sync()
	f.Close()
	m.SyncDir("d")

	// Remove without a directory sync: gone from the volatile view, but
	// a crash resurrects the durable content.
	if err := m.Remove("d/a"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadFile("d/a"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("removed file still readable: %v", err)
	}
	c := m.Clone()
	c.Crash()
	if got, err := c.ReadFile("d/a"); err != nil || string(got) != "x" {
		t.Fatalf("unsynced removal not resurrected: %q, %v", got, err)
	}

	// After SyncDir the removal is final.
	if err := m.SyncDir("d"); err != nil {
		t.Fatal(err)
	}
	c = m.Clone()
	c.Crash()
	if _, err := c.ReadFile("d/a"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("dir-synced removal survived crash: %v", err)
	}

	// Removing a never-dir-synced file leaves nothing behind at all.
	f = writeAll(t, m, "d/b", []byte("y"), os.O_CREATE|os.O_WRONLY)
	f.Sync()
	f.Close()
	if err := m.Remove("d/b"); err != nil {
		t.Fatal(err)
	}
	c = m.Clone()
	c.Crash()
	if _, err := c.ReadFile("d/b"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("uncreated file resurrected: %v", err)
	}
}

func TestMemFSReadDirAndFingerprint(t *testing.T) {
	m := NewMemFS()
	m.MkdirAll("d", 0o755)
	for _, n := range []string{"d/c", "d/a", "d/b"} {
		f := writeAll(t, m, n, []byte(n), os.O_CREATE|os.O_WRONLY)
		f.Close()
	}
	names, err := m.ReadDir("d")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 || names[0] != "a" || names[1] != "b" || names[2] != "c" {
		t.Fatalf("ReadDir order %v", names)
	}

	fp1 := m.Fingerprint()
	cp := m.Clone()
	if fp2 := cp.Fingerprint(); fp1 != fp2 {
		t.Fatal("clone fingerprint differs")
	}
	f := writeAll(t, cp, "d/a", []byte("!"), os.O_WRONLY|os.O_APPEND)
	f.Close()
	if fp2 := cp.Fingerprint(); fp1 == fp2 {
		t.Fatal("fingerprint blind to content change")
	}
}

func TestMemFSTruncateCapsDurable(t *testing.T) {
	m := NewMemFS()
	m.MkdirAll("d", 0o755)
	f := writeAll(t, m, "d/a", []byte("0123456789"), os.O_CREATE|os.O_WRONLY|os.O_APPEND)
	f.Sync()
	m.SyncDir("d")
	if err := f.Truncate(4); err != nil {
		t.Fatal(err)
	}
	c := m.Clone()
	c.Crash()
	if got, _ := c.ReadFile("d/a"); string(got) != "0123" {
		t.Fatalf("durable after truncate: %q", got)
	}
}

func TestFaultOpSyncOrdinals(t *testing.T) {
	m := NewMemFS()
	var saw []string
	ff := &Fault{Inner: m, OnOpSync: func(op string, nth int, name string) error {
		saw = append(saw, op, string(rune('0'+nth)))
		return nil
	}}
	m.MkdirAll("d", 0o755)
	ff.MarkOp("rotate")
	f := writeAll(t, ff, "d/a", []byte("x"), os.O_CREATE|os.O_WRONLY)
	f.Sync()          // rotate#1
	ff.SyncDir("d")   // rotate#2
	ff.MarkOp("sync") // counter resets
	f.Sync()          // sync#1
	f.Close()
	want := []string{"rotate", "1", "rotate", "2", "sync", "1"}
	if len(saw) != len(want) {
		t.Fatalf("op-sync trail %v, want %v", saw, want)
	}
	for i := range want {
		if saw[i] != want[i] {
			t.Fatalf("op-sync trail %v, want %v", saw, want)
		}
	}
}

func TestFaultDropWrite(t *testing.T) {
	m := NewMemFS()
	ff := &Fault{Inner: m, DropWrite: func(n int, name string, b []byte) bool { return n == 2 }}
	m.MkdirAll("d", 0o755)
	f, err := ff.OpenFile("d/a", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"one", "two", "three"} {
		if n, err := f.Write([]byte(s)); err != nil || n != len(s) {
			t.Fatalf("write %q: n=%d err=%v (drop must report success)", s, n, err)
		}
	}
	f.Close()
	if got, _ := m.ReadFile("d/a"); string(got) != "onethree" {
		t.Fatalf("file holds %q, want the dropped write silently missing", got)
	}
}
