package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is a rexpd child process.
type daemon struct {
	cmd  *exec.Cmd
	base string        // http://host:port
	log  *bytes.Buffer // stderr after the serving line
	done chan error
}

var servingRE = regexp.MustCompile(`serving (http://[0-9.:\[\]]+)`)

// startDaemon runs the rexpd binary with args plus a free loopback
// port and waits for its serving line.
func startDaemon(bin string, args []string) (*daemon, error) {
	args = append([]string{"-addr", "127.0.0.1:0"}, args...)
	cmd := exec.Command(bin, args...)
	// If the benchmark dies, its daemons die with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start rexpd: %w", err)
	}
	d := &daemon{cmd: cmd, log: new(bytes.Buffer), done: make(chan error, 1)}
	found := make(chan string, 1)
	go func() {
		// Keep draining stderr so the child never blocks on a full pipe.
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if m := servingRE.FindStringSubmatch(line); m != nil && !sent {
				found <- m[1]
				sent = true
				continue
			}
			if d.log.Len() < 1<<16 {
				d.log.WriteString(line + "\n")
			}
		}
		if !sent {
			close(found)
		}
		d.done <- cmd.Wait()
	}()
	select {
	case base, ok := <-found:
		if !ok {
			err := <-d.done
			return nil, fmt.Errorf("rexpd exited before serving: %v: %s", err, d.log.String())
		}
		d.base = base
		return d, nil
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, errors.New("rexpd did not report its address within 60s")
	}
}

// kill sends SIGKILL and waits for the process to end.
func (d *daemon) kill() {
	d.cmd.Process.Signal(syscall.SIGKILL)
	<-d.done
}

// stop drains the daemon with SIGTERM (SIGKILL after 30s) and waits.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.done:
		return err
	case <-time.After(30 * time.Second):
		d.cmd.Process.Signal(syscall.SIGKILL)
		<-d.done
		return errors.New("rexpd did not drain within 30s")
	}
}

// procStatus reads a /proc/<pid>/status field in kB (VmHWM, VmRSS).
func procStatusKB(pid int, field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, field+":") {
			f := strings.Fields(line[len(field)+1:])
			if len(f) > 0 {
				return strconv.ParseFloat(f[0], 64)
			}
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no %s", pid, field)
}

// procCPUSeconds returns the user+system CPU time of a process.
func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / clockTicks, nil
}

// clockTicks is USER_HZ, which is 100 on every Linux the Go runtime
// supports.
const clockTicks = 100

// promSample is a scraped Prometheus exposition: series name with its
// label set, as printed, to value.
type promSample map[string]float64

// get returns the value of a series ("rexp_split_total" or
// `rexp_lock_wait_seconds_sum{mode="read"}`), 0 when absent.
func (p promSample) get(series string) float64 { return p[series] }

// sub returns the counters' growth since prev.
func (p promSample) sub(prev promSample) promSample {
	out := make(promSample, len(p))
	for k, v := range p {
		out[k] = v - prev[k]
	}
	return out
}

func parseProm(r io.Reader) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// httpGet fetches base+path with the given client and returns the body
// of a 200 response.
func httpGet(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(b))
	}
	return b, nil
}

func scrapeMetrics(c *http.Client, base string) (promSample, error) {
	b, err := httpGet(c, base+"/metrics")
	if err != nil {
		return nil, err
	}
	return parseProm(bytes.NewReader(b))
}

// stats is the subset of GET /v1/stats the benchmark reads.
type stats struct {
	Clock   float64 `json:"clock"`
	Objects int     `json:"objects"`
	Shards  int     `json:"shards"`
	Height  int     `json:"height"`
	Pages   int     `json:"pages"`
}

func fetchStats(c *http.Client, base string) (stats, error) {
	var st stats
	b, err := httpGet(c, base+"/v1/stats")
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(b, &st)
}
