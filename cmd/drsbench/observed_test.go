//go:build unix

package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// noTemp fails when writeFileAtomic left a temp file beside path.
func noTemp(t *testing.T, path string) {
	t.Helper()
	if _, err := os.Lstat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("%s.tmp exists beside the output (Lstat: %v)", path, err)
	}
}

// mode renders a file's mode, or "none" for a failed Lstat.
func mode(fi os.FileInfo) string {
	if fi == nil {
		return "none"
	}
	return fi.Mode().String()
}

// A new path and an existing regular file get temp-and-rename.
func TestWriteFileAtomicRegular(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stats.json")
	for _, data := range []string{"first\n", "second\n"} {
		if err := writeFileAtomic(path, []byte(data)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != data {
			t.Fatalf("read %q, %v; want %q", got, err, data)
		}
		noTemp(t, path)
	}
}

// A symlink stays a link, and its target holds the bytes.
func TestWriteFileAtomicSymlink(t *testing.T) {
	dir := t.TempDir()
	target, link := filepath.Join(dir, "target.json"), filepath.Join(dir, "link.json")
	if err := os.WriteFile(target, []byte("old\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(target, link); err != nil {
		t.Fatal(err)
	}
	data := []byte(`{"sim_cycles": 1}` + "\n")
	if err := writeFileAtomic(link, data); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Lstat(link); err != nil || fi.Mode()&os.ModeSymlink == 0 {
		t.Fatalf("link replaced: Lstat %v, %v", mode(fi), err)
	}
	if got, err := os.ReadFile(target); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("target holds %q, %v; want %q", got, err, data)
	}
	noTemp(t, link)
}

// A named pipe stays a pipe, and its reader receives the bytes.
func TestWriteFileAtomicFIFO(t *testing.T) {
	fifo := filepath.Join(t.TempDir(), "trace.json")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Fatal(err)
	}
	read := make(chan []byte, 1)
	go func() {
		f, err := os.Open(fifo)
		if err != nil {
			read <- nil
			return
		}
		defer f.Close()
		b, _ := io.ReadAll(f)
		read <- b
	}()
	data := bytes.Repeat([]byte("0123456789abcdef"), 8192) // beyond a pipe buffer
	if err := writeFileAtomic(fifo, data); err != nil {
		t.Fatal(err)
	}
	// Checked before the read: a replaced pipe never gets a writer, so
	// its reader would wait forever.
	if fi, err := os.Lstat(fifo); err != nil || fi.Mode()&os.ModeNamedPipe == 0 {
		t.Fatalf("pipe replaced: Lstat %v, %v", mode(fi), err)
	}
	noTemp(t, fifo)
	if got := <-read; !bytes.Equal(got, data) {
		t.Fatalf("reader got %d bytes, want %d", len(got), len(data))
	}
}
