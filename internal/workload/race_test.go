//go:build race

package workload_test

func init() { raceDetector = true }
