//go:build !amd64

package vec

// detectedLanes is 0: there are no vector kernels on this architecture.
const detectedLanes = 0

func addRowsSIMD(pts [][]float64, acc []float64) bool { return false }

func sqDevRowsSIMD(pts [][]float64, mean, acc []float64) bool { return false }

func minMaxRowsSIMD(pts [][]float64, lo, hi []float64) bool { return false }
