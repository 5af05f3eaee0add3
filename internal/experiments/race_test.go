//go:build race

package experiments

// raceDetector reports a -race build: the figure replays are
// single-threaded engine runs that the detector slows tenfold without
// adding coverage.
const raceDetector = true
