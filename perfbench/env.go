package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// environment describes where a result was measured: core counts, Go
// version, the source revision and an fsync-latency probe of the directory
// the WAL is written to. The probe gives context for the wal.* figures and
// is not a gated metric.
func environment(out string) map[string]any {
	root := filepath.Dir(out)
	env := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     gitCommit(root),
		"source":     sourceDigest(root, out),
	}
	if p50, maxUS, err := fsyncProbe(out); err != nil {
		env["fsync_probe_error"] = err.Error()
	} else {
		env["fsync_us_p50"], env["fsync_us_max"] = p50, maxUS
	}
	return env
}

// gitCommit reads HEAD from the checkout's .git directory, if it has one.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "none"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "none"
}

// sourceDigest hashes every .go and go.mod file of the checkout, so results
// from a checkout without git history still name the code they measured.
func sourceDigest(root, skip string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (path == skip || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		h.Write([]byte(rel + "\x00"))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// fsyncProbe times 20 write+fsync pairs of 4 KiB in dir.
func fsyncProbe(dir string) (p50, maxUS float64, err error) {
	f, err := os.CreateTemp(dir, "fsync-probe-*")
	if err != nil {
		return 0, 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	block := make([]byte, 4096)
	var ts []float64
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		if _, err := f.Write(block); err != nil {
			return 0, 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, 0, err
		}
		ts = append(ts, us(time.Since(t0)))
	}
	sort.Float64s(ts)
	return median(ts), ts[len(ts)-1], nil
}
