// The benchmark is a module of its own so that it builds from its own
// build file; it reaches the program under test through the replace line.
module lossyckpt/bench

go 1.22

require lossyckpt v0.0.0

replace lossyckpt => ../
