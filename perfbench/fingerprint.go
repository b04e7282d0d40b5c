package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// buildDir is where the benchmark keeps everything it writes, relative to
// the checkout it runs in.
const buildDir = ".bench_build/perfbench"

func defaultTracePath(cfg config) string {
	return filepath.Join(buildDir, fmt.Sprintf("trace-%s-%d.jsonl", cfg.workload, cfg.seed))
}

// machine identifies where and on what code a run was made, so runs from
// different machines or trees are never compared silently.
type machine struct {
	cpu, goVersion, commit, source string
	nproc, gomaxprocs              int
}

func fingerprint() machine {
	return machine{
		cpu:        cpuModel(),
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		goVersion:  runtime.Version(),
		commit:     vcsRevision(),
		source:     sourceDigest("."),
	}
}

func (m machine) String() string {
	return fmt.Sprintf("machine: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s source=%s",
		m.cpu, m.nproc, m.gomaxprocs, m.goVersion, m.commit, m.source)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// vcsRevision is the commit the binary was built from, when the build
// saw a git checkout; "none" otherwise (source identifies the tree then).
func vcsRevision() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "none"
	}
	rev, dirty := "none", ""
	for _, s := range bi.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}

// sourceDigest hashes every Go source and module file under root (skipping
// hidden directories such as the build directory), so two runs on the same
// code carry the same digest whether or not git is present.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("sha256:%x", h.Sum(nil)[:8])
}
