package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// envHeader records where and on what a result was measured. It is
// printed with every run, ahead of the result line.
type envHeader struct {
	GoVersion  string         `json:"go_version"`
	GOOS       string         `json:"goos"`
	GOARCH     string         `json:"goarch"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"num_cpu"`
	CPU        string         `json:"cpu"`
	Commit     string         `json:"commit"`
	Workload   string         `json:"workload"`
	Seed       uint64         `json:"seed"`
	Seconds    int            `json:"seconds"`
	Trace      bool           `json:"trace"`
	Params     map[string]any `json:"params"`
}

func newEnvHeader(root string) envHeader {
	return envHeader{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
		Commit:     gitCommit(root),
	}
}

// cpuModel reads the processor name the kernel reports, "unknown" where
// there is none.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit returns the commit checked out at root, or "unknown" when
// root is not itself the top of a git work tree. The ceiling keeps git
// from answering for a repository that merely contains root.
func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "-C", root, "rev-parse", "--show-toplevel", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	lines := strings.Fields(string(out))
	if len(lines) != 2 {
		return "unknown"
	}
	top, err1 := filepath.EvalSymlinks(lines[0])
	want, err2 := filepath.EvalSymlinks(root)
	if err1 != nil || err2 != nil || top != want {
		return "unknown"
	}
	return lines[1]
}
