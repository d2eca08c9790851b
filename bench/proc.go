package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// selfCPU returns the CPU time (user + system) this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// fields; 100 on every Linux platform Go supports.
const clockTick = 100

// procCPU returns the user + system CPU time of process pid.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after it start
	// past the closing parenthesis.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64) // field 14
	stime, err2 := strconv.ParseUint(f[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// resetPeak restarts the peak-resident-set counter (VmHWM) of process
// pid, so the next peakMB covers only what runs in between. Where the
// kernel refuses the reset, peakMB covers the process's whole life,
// which only raises the reported peak.
func resetPeak(pid int) {
	_ = os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// peakMB returns the peak resident set (VmHWM) of process pid in MB, 0
// when /proc cannot tell.
func peakMB(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// memDelta is the allocation and GC activity of this process between
// two points.
type memDelta struct{ allocBytes, gcCycles uint64 }

type memMark runtime.MemStats

func readMem() *memMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return (*memMark)(&m)
}

func (m *memMark) since() memDelta {
	now := readMem()
	return memDelta{allocBytes: now.TotalAlloc - m.TotalAlloc, gcCycles: uint64(now.NumGC - m.NumGC)}
}
