//go:build race

package workload

func init() { raceBuild = true }
