# Injected into the repository's top-level project through
# -DCMAKE_PROJECT_tdt_INCLUDE=<this file> (see run.py): it runs right
# after project(tdt) and adds the benchmark's harness to the repository's
# own build tree. Link targets resolve when the build is generated, so
# the harness can name library targets defined later in the tree.
add_subdirectory(${CMAKE_CURRENT_LIST_DIR} ${CMAKE_BINARY_DIR}/e2ebench)
