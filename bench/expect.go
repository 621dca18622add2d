package main

// expected holds, per workload and seed, the clique family this tree
// produced when the benchmark was defined: the number of maximal cliques
// and the digest of the family (cliqstore.Digest in emission order for the
// batch workloads, the index's content digest for serve_mixed). A run with
// one of these seeds must reproduce it; any other seed is held to the
// reference count alone (verifyFamily).
var expected = map[string]map[int64]family{
	"social_sparse": {
		1:  {252335, 0x628b1fd8},
		2:  {251931, 0xfbbeac09},
		3:  {252124, 0xc161d137},
		4:  {252172, 0xbb72ba47},
		5:  {251831, 0x05ad933e},
		6:  {252317, 0x3ff559ec},
		7:  {252266, 0x34db1019},
		8:  {252237, 0x7c460148},
		9:  {252006, 0x20618ed6},
		10: {252244, 0x037f05e5},
		42: {251898, 0xa25b7a72},
	},
	"dense_core": {
		1:  {923712, 0xe1c990f0},
		2:  {923712, 0xd1b359a3},
		3:  {923712, 0xa6a7c2d8},
		4:  {923712, 0xa25e8221},
		5:  {923712, 0xbe931414},
		6:  {923712, 0x9adb675d},
		7:  {923712, 0x866ce615},
		8:  {923712, 0x7180dd13},
		9:  {923712, 0x00272152},
		10: {923712, 0x9a610a13},
		42: {923712, 0xcc674c61},
	},
	"durable_cluster": {
		1:  {202296, 0x9bf10e56},
		2:  {202062, 0x90b22e39},
		3:  {202120, 0x6474f246},
		4:  {202194, 0xdc969e82},
		5:  {201999, 0x79320500},
		6:  {202219, 0xb45e704f},
		7:  {202303, 0x302c1c86},
		8:  {202340, 0x7be087fe},
		9:  {202227, 0x853cd2e7},
		10: {202115, 0x09f9fc74},
		42: {202141, 0xe94e028c},
	},
	"serve_mixed": {
		1:  {252335, 0x35a53b79},
		2:  {251931, 0xcfb279de},
		3:  {252124, 0xbd521e68},
		4:  {252172, 0x6554663f},
		5:  {251831, 0x579da17f},
		6:  {252317, 0xce521268},
		7:  {252266, 0x1cbe474f},
		8:  {252237, 0x55be598b},
		9:  {252006, 0x5c57a882},
		10: {252244, 0x05ba51d3},
		42: {251898, 0x4d99c030},
	},
}

// expectedFamily returns the committed expectation for a seed. dense_core
// is one graph under every seed, so its count is known for all of them; a
// zero digest means only the count is committed.
func expectedFamily(workload string, seed int64) (family, bool) {
	if f, ok := expected[workload][seed]; ok {
		return f, true
	}
	if workload == "dense_core" {
		return family{cliques: denseCoreCliques}, true
	}
	return family{}, false
}
