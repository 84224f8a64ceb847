package bipartite

// HopcroftKarpRescan hands the cursor-free reference solver to the external
// test package, whose pipeline differential installs it through core.
var HopcroftKarpRescan = hopcroftKarpRescan
