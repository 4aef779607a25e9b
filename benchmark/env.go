package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// environment stamps a result with what it was measured on and against.
// host_steal_share is the share of the machine's CPU time the hypervisor
// gave to other guests since start (cpuTimes at process start): on a
// shared virtual machine the query tails rise with it.
func environment(stateDir string, start [2]int64) map[string]any {
	env := map[string]any{
		"commit":     commit(),
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu_model":  cpuModel(),
		"kernel":     firstLine("/proc/sys/kernel/osrelease"),
		"state_fs":   filesystem(stateDir),
	}
	if now := cpuTimes(); now[0] > start[0] {
		env["host_steal_share"] = float64(now[1]-start[1]) / float64(now[0]-start[0])
	}
	return env
}

// cpuTimes returns the machine's total CPU time and its steal time, in
// clock ticks, from the first line of /proc/stat; zeros when unreadable.
func cpuTimes() [2]int64 {
	f := strings.Fields(firstLine("/proc/stat"))
	if len(f) < 9 || f[0] != "cpu" {
		return [2]int64{}
	}
	var t [2]int64
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user and nice.
	for i, v := range f[1:9] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return [2]int64{}
		}
		t[0] += n
		if i == 7 {
			t[1] = n
		}
	}
	return t
}

// clockTick is the unit of /proc/stat's counters (USER_HZ).
const clockTick = 10 * time.Millisecond

// hostSample is one reading of three clocks: wall time, the process's
// CPU time, and the machine's steal time — CPU time the hypervisor gave
// to other guests while this machine's CPUs wanted to run. The kernel
// leaves steal out of a process's CPU time.
type hostSample struct {
	wall       time.Time
	cpu, steal time.Duration
}

func sampleHost() hostSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return hostSample{
		wall:  time.Now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		steal: time.Duration(cpuTimes()[1]) * clockTick,
	}
}

// unstolen returns the wall time from a to b, in seconds, less the share
// of it the hypervisor took: W × C/(C+S), with C the process's CPU time
// and S the machine's steal over the interval. While the process keeps
// p CPUs busy, W ≈ (C+S)/p, so the result is C/p: the wall time the same
// work takes when no CPU time is stolen. Without steal it is W. Steal is
// counted in 10 ms ticks, so only intervals well over that are corrected
// accurately.
func unstolen(a, b hostSample) float64 {
	w := b.wall.Sub(a.wall).Seconds()
	c, s := (b.cpu - a.cpu).Seconds(), (b.steal - a.steal).Seconds()
	if c <= 0 || s <= 0 {
		return w
	}
	return w * c / (c + s)
}

// stolenShare returns the share of the CPU time the process wanted from
// a to b that the hypervisor gave to other guests: S/(C+S).
func stolenShare(a, b hostSample) float64 {
	c, s := (b.cpu - a.cpu).Seconds(), (b.steal - a.steal).Seconds()
	if c+s <= 0 {
		return 0
	}
	return s / (c + s)
}

// commit identifies the measured code: the VCS revision the binary was
// built from when the build saw one, else a digest of the module's Go
// sources and go.mod (a checkout without version control).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+modified"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	return "src-sha256:" + sourceDigest(".")
}

// sourceDigest hashes every .go file and go.mod under root, in path
// order, skipping the benchmark's build directory.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
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
		h.Write([]byte(f + "\x00"))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
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

func firstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return strings.TrimSpace(line)
}

// filesystem returns the type of the filesystem holding dir: the mount
// with the longest mount point prefixing it.
func filesystem(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	f, err := os.Open("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, fstype := -1, "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		mp := fields[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
			best, fstype = len(mp), fields[2]
		}
	}
	return fstype
}

// peakRSS returns the process's peak resident set (VmHWM) in bytes.
func peakRSS() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) >= 1 {
				kb, err := strconv.ParseFloat(fields[0], 64)
				if err == nil {
					return kb * 1024
				}
			}
		}
	}
	return 0
}

// heapLive forces a collection and returns the heap bytes still in use.
func heapLive() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}
