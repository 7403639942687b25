# Included after the repository's top-level project() call (run.py passes
# -DCMAKE_PROJECT_INCLUDE=<this file>). The deferred include runs once the
# top-level CMakeLists.txt is done, so the harness target is defined with
# the repository's compile options and next to the libraries it links.
set(PERFBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")
cmake_language(DEFER CALL include "${PERFBENCH_DIR}/CMakeLists.txt")
