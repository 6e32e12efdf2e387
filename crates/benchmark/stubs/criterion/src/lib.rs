//! Empty stand-in for `criterion`: the workspace's dev-dependencies must resolve offline, but the
//! benchmark never compiles a target that uses them.
