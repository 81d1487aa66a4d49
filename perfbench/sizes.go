package main

// size is everything a workload's load depends on. "full" is the
// benchmark; "tiny" runs every workload, output check included, in seconds
// for the self-tests.
type size struct {
	suiteScale    int
	suiteNets     []string // nil = all six benchmark networks
	suiteSiblings int      // sibling passes (their median is reported)
	suiteRepeats  int      // minimum resume passes

	modelScale     int
	modelNets      []string
	modelPrecs     []string
	modelSiblings  []string // accelerators of the sibling phase
	hitsPerRequest int      // memo hits replayed after each cold or sibling request

	simScale   int
	simClasses []simClass
	simSeeds   int // distinct operand seeds per class
}

// simShapes are the accelerator shapes of sim-serve: the first is the first
// requests', the rest are their siblings'.
var simShapes = []simShape{{8, 32, "wa"}, {16, 32, "wa"}}

// fleetNets are the networks of the fleet replay in traced suite and
// model-serve runs.
var fleetNets = []string{"AlexNet"}

// simClass is a (network, layer, precision) of the sim-serve workload.
type simClass struct{ Net, Layer, Precision string }

// moreRepeats reports whether a repeat phase runs its i-th operation: at
// least `least` of them, then more until the run has measured --seconds,
// but never so many that the tail moves to a higher percentile than
// `least` samples give (the cap is the next power of ten minus one: 900
// samples report p90, and so does every count up to 999).
func (r *run) moreRepeats(i, least int) bool {
	limit := 10
	for limit <= least {
		limit *= 10
	}
	return i < least || (i < limit-1 && !r.elapsed())
}

var sizes = map[string]size{
	"full": {
		suiteScale:    16,
		suiteSiblings: 5,
		suiteRepeats:  900,

		modelScale:     16,
		modelNets:      []string{"AlexNet", "VGG-16", "ResNet-18"},
		modelPrecs:     []string{"8b", "4b", "2b", "mix2/4"},
		modelSiblings:  []string{"bitfusion", "laconic", "sparten", "scnn"},
		hitsPerRequest: 15,

		simScale: 16,
		// Classes of similar cost, so the median falls inside a class
		// rather than jumping between two far apart.
		simClasses: []simClass{
			{"ResNet-18", "conv3_2", "8b"}, {"ResNet-18", "conv4_2", "4b"},
			{"VGG-16", "conv4_1", "2b"}, {"AlexNet", "conv3", "4b"},
		},
		simSeeds: 10,
	},
	"tiny": {
		suiteScale:    64,
		suiteNets:     []string{"AlexNet"},
		suiteSiblings: 1,
		suiteRepeats:  12,

		modelScale:     64,
		modelNets:      []string{"AlexNet"},
		modelPrecs:     []string{"4b"},
		modelSiblings:  []string{"bitfusion"},
		hitsPerRequest: 6,

		simScale:   64,
		simClasses: []simClass{{"AlexNet", "conv3", "4b"}},
		simSeeds:   2,
	},
}
