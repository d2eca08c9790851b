package main

// Example pins the paper's Figure 3–4 walkthrough: the first eight
// CBWS vectors of the stencil's inner loop and their constant
// 1024-line differentials.
func Example() {
	main()
	// Output:
	// CBWS vectors of consecutive stencil iterations (line addresses):
	//   CBWS0 = ( 67110920, 67108872, 67109904, 67109888, 67109896, 71304200 )
	//   CBWS1 = ( 67111944, 67109896, 67110928, 67110912, 67110920, 71305224 )
	//   CBWS2 = ( 67112968, 67110920, 67111952, 67111936, 67111944, 71306248 )
	//   CBWS3 = ( 67113992, 67111944, 67112976, 67112960, 67112968, 71307272 )
	//   CBWS4 = ( 67115016, 67112968, 67114000, 67113984, 67113992, 71308296 )
	//   CBWS5 = ( 67116040, 67113992, 67115024, 67115008, 67115016, 71309320 )
	//   CBWS6 = ( 67117064, 67115016, 67116048, 67116032, 67116040, 71310344 )
	//   CBWS7 = ( 67118088, 67116040, 67117072, 67117056, 67117064, 71311368 )
	//
	// CBWS differentials (element-wise deltas between iterations):
	//   CBWS1-CBWS0 = ( 1024, 1024, 1024, 1024, 1024, 1024 )
	//   CBWS2-CBWS1 = ( 1024, 1024, 1024, 1024, 1024, 1024 )
	//   CBWS3-CBWS2 = ( 1024, 1024, 1024, 1024, 1024, 1024 )
	//   CBWS4-CBWS3 = ( 1024, 1024, 1024, 1024, 1024, 1024 )
	//   CBWS5-CBWS4 = ( 1024, 1024, 1024, 1024, 1024, 1024 )
	//   CBWS6-CBWS5 = ( 1024, 1024, 1024, 1024, 1024, 1024 )
	//   CBWS7-CBWS6 = ( 1024, 1024, 1024, 1024, 1024, 1024 )
	//
	// The differential is the constant plane stride (1024 lines = 64KB):
	// one vector predicts the complete working set of every pending
	// iteration — the paper's Figure 4.
}
