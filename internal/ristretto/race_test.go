//go:build race

package ristretto_test

func init() { raceDetector = true }
