package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/fig*.golden from the current code")

// TestFigureGolden replays every figure at a tiny scale and compares
// the rendered table and each run's metrics with testdata, byte for
// byte.  The engine's page-I/O counts are exact at a fixed seed, so
// any change to the index's behaviour — a different split, a bounding
// rectangle one ulp wider — shows up here instead of drifting silently
// into the recorded figures.  After an intended change, regenerate
// with
//
//	go test ./internal/experiments -run TestFigureGolden -update
//
// and say in the change why the figures moved.
func TestFigureGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other compilers may fuse multiply-adds, which rounds the
		// hull arithmetic differently and legitimately moves the I/O.
		t.Skipf("golden figures are recorded on amd64, not %s", runtime.GOARCH)
	}
	for _, id := range FigureIDs() {
		n, err := strconv.Atoi(id)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", fmt.Sprintf("fig%02d.golden", n))
		t.Run("fig"+id, func(t *testing.T) {
			t.Parallel()
			fig, err := RunFigure(id, 0.002, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			// The table as rexpbench prints it (without its timing
			// line), then every run's metrics at full precision: at this
			// scale the buffer pool holds the whole tree, so search I/O
			// rounds to 0.00 and the exact update I/O, page and entry
			// counts carry the signal.
			var b strings.Builder
			b.WriteString(fig.Render())
			b.WriteByte('\n')
			for _, sr := range fig.Series {
				for _, m := range sr.Points {
					fmt.Fprintf(&b, "%+v\n", m)
				}
			}
			got := b.String()
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to record it)", err)
			}
			if got == string(want) {
				return
			}
			gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) || i < len(wl); i++ {
				var g, w string
				if i < len(gl) {
					g = gl[i]
				}
				if i < len(wl) {
					w = wl[i]
				}
				if g != w {
					t.Fatalf("figure %s drifted from %s at line %d:\n got: %s\nwant: %s", id, path, i+1, g, w)
				}
			}
		})
	}
}
