package faultfs

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// MemFS is an in-memory FS with an explicit durability model, built for
// deterministic simulation: every file carries both its volatile
// content (what the process has written) and the prefix of that content
// known durable (what an fsync has pushed to "stable storage"), and
// directory entries distinguish creations and removals whose directory
// sync has not happened yet. Crash collapses the volatile view onto the
// durable one — exactly the state a power loss would leave on disk —
// so a simulation can model "process restart" (volatile survives, as
// the page cache does) and "power cut" (only durable survives) as two
// distinct, replayable events, with zero real I/O either way.
//
// The durability rules mirror a conventional POSIX fs:
//
//   - Write extends volatile content only.
//   - File Sync makes the file's current content durable — but the file
//     itself only survives a crash if its creation was made durable by
//     a directory sync (SyncDir), as on a real fs.
//   - Remove removes the name from the volatile view; until SyncDir the
//     removal is not durable and a crash resurrects the file with its
//     durable content.
//   - Truncate cuts volatile content and caps the durable prefix.
//
// MemFS is safe for concurrent use; the simulation's single logical
// thread makes the locking trivial in practice.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memFile
	dirs  map[string]bool
}

type memFile struct {
	data    []byte // volatile content
	durable int    // prefix of data known durable (≤ len(data) invariant kept on write/truncate)
	created bool   // creation made durable by SyncDir
	removed bool   // removed from the volatile view; durable content may survive a crash
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{files: map[string]*memFile{}, dirs: map[string]bool{}}
}

// OpenFile opens name for writing with the flag semantics the WAL uses
// (O_CREATE, O_APPEND, O_TRUNC, O_WRONLY). Opening a missing file
// without O_CREATE fails with fs.ErrNotExist.
func (m *MemFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = filepath.Clean(name)
	f := m.files[name]
	if f == nil || f.removed {
		if flag&os.O_CREATE == 0 {
			return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
		}
		f = &memFile{}
		m.files[name] = f
	}
	if flag&os.O_TRUNC != 0 {
		f.data = nil
		f.durable = 0
	}
	return &memHandle{fs: m, name: name, appendMode: flag&os.O_APPEND != 0}, nil
}

// ReadFile returns the volatile content of name.
func (m *MemFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = filepath.Clean(name)
	f := m.files[name]
	if f == nil || f.removed {
		return nil, &fs.PathError{Op: "read", Path: name, Err: fs.ErrNotExist}
	}
	return append([]byte(nil), f.data...), nil
}

// ReadDir lists the file names directly under dir, sorted.
func (m *MemFS) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir = filepath.Clean(dir)
	if !m.dirs[dir] {
		return nil, &fs.PathError{Op: "readdir", Path: dir, Err: fs.ErrNotExist}
	}
	var names []string
	for name, f := range m.files {
		if f.removed {
			continue
		}
		if filepath.Dir(name) == dir {
			names = append(names, filepath.Base(name))
		}
	}
	sort.Strings(names)
	return names, nil
}

// MkdirAll records dir and its parents.
func (m *MemFS) MkdirAll(dir string, perm fs.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir = filepath.Clean(dir)
	for d := dir; ; d = filepath.Dir(d) {
		m.dirs[d] = true
		if d == "." || d == string(filepath.Separator) || filepath.Dir(d) == d {
			break
		}
	}
	return nil
}

// Remove deletes name from the volatile view. The removal only becomes
// durable at the next SyncDir of the containing directory; until then a
// crash resurrects the file's durable content.
func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = filepath.Clean(name)
	f := m.files[name]
	if f == nil || f.removed {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	if !f.created {
		// Creation never reached the directory: nothing durable to keep.
		delete(m.files, name)
		return nil
	}
	f.removed = true
	return nil
}

// SyncDir makes dir's entry changes durable: pending creations under it
// are pinned and pending removals are finalized.
func (m *MemFS) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir = filepath.Clean(dir)
	if !m.dirs[dir] {
		return &fs.PathError{Op: "syncdir", Path: dir, Err: fs.ErrNotExist}
	}
	for name, f := range m.files {
		if filepath.Dir(name) != dir {
			continue
		}
		if f.removed {
			delete(m.files, name)
			continue
		}
		f.created = true
	}
	return nil
}

// Crash collapses the filesystem to its durable view, in place: files
// whose creation was never directory-synced vanish, files removed
// without a directory sync come back, and every surviving file is cut
// to its durable prefix. This is the power-loss event; a plain process
// restart keeps the volatile view (the page cache survives).
func (m *MemFS) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for name, f := range m.files {
		if !f.created {
			delete(m.files, name)
			continue
		}
		f.removed = false
		f.data = f.data[:f.durable]
	}
}

// Clone deep-copies the filesystem — the model checker snapshots disk
// state with it.
func (m *MemFS) Clone() *MemFS {
	m.mu.Lock()
	defer m.mu.Unlock()
	cp := NewMemFS()
	for name, f := range m.files {
		cp.files[name] = &memFile{
			data:    append([]byte(nil), f.data...),
			durable: f.durable,
			created: f.created,
			removed: f.removed,
		}
	}
	for d, ok := range m.dirs {
		cp.dirs[d] = ok
	}
	return cp
}

// Fingerprint returns a canonical digest of the full filesystem state —
// volatile and durable content, pending creations and removals — for
// explicit-state deduplication.
func (m *MemFS) Fingerprint() [sha256.Size]byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.files))
	for name := range m.files {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	var num [8]byte
	for _, name := range names {
		f := m.files[name]
		fmt.Fprintf(h, "%s|%v|%v|", name, f.created, f.removed)
		binary.LittleEndian.PutUint64(num[:], uint64(f.durable))
		h.Write(num[:])
		binary.LittleEndian.PutUint64(num[:], uint64(len(f.data)))
		h.Write(num[:])
		h.Write(f.data)
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// memHandle is one open-file handle.
type memHandle struct {
	fs         *MemFS
	name       string
	appendMode bool
	off        int
	closed     bool
}

func (h *memHandle) file() (*memFile, error) {
	if h.closed {
		return nil, &fs.PathError{Op: "write", Path: h.name, Err: fs.ErrClosed}
	}
	f := h.fs.files[h.name]
	if f == nil {
		return nil, &fs.PathError{Op: "write", Path: h.name, Err: fs.ErrNotExist}
	}
	return f, nil
}

func (h *memHandle) Write(b []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	f, err := h.file()
	if err != nil {
		return 0, err
	}
	if h.appendMode {
		h.off = len(f.data)
	}
	if n := h.off + len(b); n > len(f.data) {
		f.data = append(f.data, make([]byte, n-len(f.data))...)
	}
	copy(f.data[h.off:], b)
	h.off += len(b)
	return len(b), nil
}

func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	f, err := h.file()
	if err != nil {
		return err
	}
	f.durable = len(f.data)
	return nil
}

func (h *memHandle) Truncate(size int64) error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	f, err := h.file()
	if err != nil {
		return err
	}
	if int(size) < len(f.data) {
		f.data = f.data[:size]
	}
	if f.durable > int(size) {
		f.durable = int(size)
	}
	if h.off > int(size) {
		h.off = int(size)
	}
	return nil
}

func (h *memHandle) Close() error {
	h.closed = true
	return nil
}
