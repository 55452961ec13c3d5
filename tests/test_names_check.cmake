# Fails if a test name in this build tree embeds a parameter's raw bytes
# ("N-byte object <...>"). gtest prints a parameter struct that has no
# PrintTo as its bytes, and gtest_discover_tests puts them in the ctest
# name; bytes that hold pointers or padding change from build to build, so
# such a name cannot identify a test across builds. Allowed by name:
#   raw     the Sweep suite whose parameter gtest dumps as is: three
#           doubles, no padding, so every build reproduces its names.
#   pinned  suites whose PrintTo prints the name each case was first
#           recorded under: the stemmer and kill-point suites print a
#           pinned copy; ScoringOptionTest and CircleCoverPropertyTest
#           their byte dump with the padding pinned to zero (see
#           byte_dump_name.h), so their names must end in zeroed padding.
# Run via ctest (see tests/CMakeLists.txt); requires -DCTEST=<ctest path>
# -DBUILD_DIR=<build tree>.
if(NOT DEFINED CTEST OR NOT DEFINED BUILD_DIR)
  message(FATAL_ERROR "pass -DCTEST=<ctest path> -DBUILD_DIR=<build tree>")
endif()

execute_process(
  COMMAND ${CTEST} -N
  WORKING_DIRECTORY ${BUILD_DIR}
  OUTPUT_VARIABLE out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ctest -N failed (${rc}):\n${out}")
endif()
if(NOT out MATCHES "Total Tests: [1-9]")
  message(FATAL_ERROR "ctest -N listed no tests:\n${out}")
endif()

set(raw "Sweep/DistanceScoreTest\\.")
set(pinned "(ReferenceVocabulary/PorterStemmerParamTest|AllSites/KillPointSweepTest|Sweep/(ScoringOptionTest|CircleCoverPropertyTest))\\.")
set(zero_padded "Sweep/(ScoringOptionTest|CircleCoverPropertyTest)\\.")
string(REGEX MATCHALL "Test +#[0-9]+: [^\n]*-byte object[^\n]*" hits "${out}")
set(bad "")
foreach(hit IN LISTS hits)
  if(NOT hit MATCHES ": (${raw}|${pinned})")
    string(APPEND bad "  ${hit}\n")
  elseif(hit MATCHES ": ${zero_padded}" AND NOT hit MATCHES " 00-00 00-00>$")
    string(APPEND bad "  ${hit}\n")
  endif()
endforeach()
if(NOT bad STREQUAL "")
  message(FATAL_ERROR "test names embed raw parameter bytes or unpinned "
                      "padding; give the parameter type a PrintTo:\n${bad}")
endif()
