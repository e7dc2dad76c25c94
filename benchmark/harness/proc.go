package harness

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"syscall"
	"time"
)

// clockTick is the kernel's USER_HZ, the unit of the CPU fields of
// /proc/<pid>/stat. It is 100 on every Linux architecture Go supports.
const clockTick = time.Second / 100

// ProcCPU returns the user+system CPU time the processes have used so
// far, read from /proc/<pid>/stat.
func ProcCPU(pids ...int) (time.Duration, error) {
	var total time.Duration
	for _, pid := range pids {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			return 0, err
		}
		// The command name (field 2) may hold spaces; fields are counted
		// from the closing parenthesis. utime and stime are fields 14, 15.
		i := bytes.LastIndexByte(b, ')')
		f := bytes.Fields(b[i+1:])
		if i < 0 || len(f) < 13 {
			return 0, fmt.Errorf("harness: malformed /proc/%d/stat", pid)
		}
		ut, err1 := strconv.ParseInt(string(f[11]), 10, 64)
		st, err2 := strconv.ParseInt(string(f[12]), 10, 64)
		if err1 != nil || err2 != nil {
			return 0, fmt.Errorf("harness: malformed CPU fields in /proc/%d/stat", pid)
		}
		total += time.Duration(ut+st) * clockTick
	}
	return total, nil
}

// SelfCPU returns this process's user+system CPU time.
func SelfCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// PeakRSSMB sums the processes' peak resident set sizes (VmHWM of
// /proc/<pid>/status) in MB. Pid 0 means this process.
func PeakRSSMB(pids ...int) (float64, error) {
	var kb int64
	for _, pid := range pids {
		path := fmt.Sprintf("/proc/%d/status", pid)
		if pid == 0 {
			path = "/proc/self/status"
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return 0, err
		}
		v, err := statusKB(b, "VmHWM:")
		if err != nil {
			return 0, fmt.Errorf("harness: %s: %w", path, err)
		}
		kb += v
	}
	return float64(kb) / 1024, nil
}

func statusKB(status []byte, key string) (int64, error) {
	for _, line := range bytes.Split(status, []byte("\n")) {
		if bytes.HasPrefix(line, []byte(key)) {
			f := bytes.Fields(line[len(key):])
			if len(f) == 0 {
				break
			}
			return strconv.ParseInt(string(f[0]), 10, 64)
		}
	}
	return 0, fmt.Errorf("no %s line", key)
}
