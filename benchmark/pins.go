package main

// pinnedInputs is the input_sha256 of every workload at the default seed:
// sorted triples, then the question texts. qald, nl-scale and serve-zipf
// take their KBs from generators in internal/bench, outside this
// directory; a change there that alters what the benchmark measures fails
// the run here instead of passing as a performance change.
var pinnedInputs = map[string]string{
	wlQald:       "33bd315cf9ef7d557df12ec815ffaccabcaf93996177602b5ab65795a0b2e1f3",
	wlNLScale:    "f4fde8f71436477819326eacd3954091b5313fcb919ac1382f9bd3afd23e83b3",
	wlMatchLocal: "e282c7481631f7c7316859e73b54d8b1a563e4d85bb060ea1a22b991a12d3c0b",
	wlMatchRPC:   "b721a6f078a41a14e84d1dab0b1c3d573f32cc2988ad36721a624ea0effa5627",
	wlServeZipf:  "d3dc98e8444eb2744b198cbf419adb3caad81f8fdef3d86b02c77cf26bfa1fce",
}
