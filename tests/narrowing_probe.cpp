// Deliberately ill-formed under the build's -Werror=conversion: the
// narrowing_gate ctest builds this file and expects the compiler to reject
// the implicit long -> int below.
int f(long x) { int y = x; return y; }
