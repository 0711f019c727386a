// Package adlb reimplements the Asynchronous Dynamic Load Balancer
// (Lusk, Pieper, Butler: "More scalability, less pain", SciDAC Review
// 2010) that underlies the Swift/T runtime described in the paper.
//
// A deployment partitions an MPI world into clients and servers (the last
// N ranks). Servers hold typed priority work queues and a distributed
// single-assignment data store. Clients submit work with Put — optionally
// targeted at a specific rank — and block in Get until work of a matching
// type is delivered. Servers steal work from one another when their own
// clients go idle, and run Safra's termination-detection algorithm on a
// token ring to discover global quiescence, at which point every parked
// Get returns "no more work" and the deployment shuts down.
//
// The data store provides Turbine's typed futures: Create/Store/Retrieve
// with single-assignment semantics, CreateClosed to create a datum
// already set in one RPC (Turbine's literals: opCreate's presence byte
// says whether a value follows, and the server applies Store's checks),
// Subscribe for close notifications on many ids at once (one RPC per
// owning server; notifications are delivered as targeted work items
// through the normal Get path), and containers with
// insert/lookup/enumerate plus write-refcount close semantics.
package adlb
