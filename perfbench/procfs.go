package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is USER_HZ, the unit of the CPU times in /proc/<pid>/stat. The
// Linux ABI fixes it at 100 on every architecture Go supports.
const clockTick = 10 * time.Millisecond

// parseStatCPU returns user+system CPU time from the contents of a
// /proc/<pid>/stat file. The command name in field 2 may hold spaces and
// parentheses, so fields are counted from the last ')'.
func parseStatCPU(stat []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field")
	}
	// After ')' come field 3 (state) onward; utime and stime are 14 and 15.
	f := strings.Fields(string(stat[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after command", len(f))
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// procCPU reads the CPU time process pid has used.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(b)
}

// parseStatusKB returns the value in kB of one "Key:  N kB" line of a
// /proc/<pid>/status file.
func parseStatusKB(status []byte, key string) (uint64, error) {
	sc := bufio.NewScanner(bytes.NewReader(status))
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok || k != key {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status %s: %w", key, err)
		}
		return n, nil
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}

// peakRSSMB reads VmHWM, the peak resident set, of process pid
// ("self" for this process) in MiB.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusKB(b, "VmHWM")
	return float64(kb) / 1024, err
}

// selfCPU is this process's user+system CPU time from getrusage, which
// has microsecond resolution, unlike /proc/<pid>/stat.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// parseCPUSteal returns the steal and total jiffies of the aggregate "cpu"
// line of /proc/stat.
func parseCPUSteal(stat []byte) (steal, total uint64, err error) {
	line, _, _ := bytes.Cut(stat, []byte("\n"))
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("proc stat: no cpu line with a steal field")
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("proc stat cpu field %d: %w", i+1, err)
		}
		// guest and guest_nice (fields 9 and 10) are already in user time.
		if i < 8 {
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total, nil
}

// hostSteal reads the host-wide steal and total jiffies.
func hostSteal() (steal, total uint64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	return parseCPUSteal(b)
}
