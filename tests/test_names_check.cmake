# Fails if a test name in this build tree embeds a parameter's raw bytes
# ("N-byte object <...>"). gtest prints a parameter struct that has no
# PrintTo as its bytes, and gtest_discover_tests puts them in the ctest
# name; bytes that hold pointers change with every link, so such a name
# cannot identify a test across builds. The three Sweep suites below print
# only doubles and padding, which every build of this tree reproduces, and
# the stemmer and kill-point suites print pinned copies of the names they
# were first recorded under; these five are allowed by name. Run via ctest
# (see tests/CMakeLists.txt); requires -DCTEST=<ctest path>
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

set(allowed "(Sweep/(CircleCoverPropertyTest|ScoringOptionTest|DistanceScoreTest)|ReferenceVocabulary/PorterStemmerParamTest|AllSites/KillPointSweepTest)\\.")
string(REGEX MATCHALL "Test +#[0-9]+: [^\n]*-byte object[^\n]*" hits "${out}")
set(bad "")
foreach(hit IN LISTS hits)
  if(NOT hit MATCHES ": ${allowed}")
    string(APPEND bad "  ${hit}\n")
  endif()
endforeach()
if(NOT bad STREQUAL "")
  message(FATAL_ERROR "test names embed raw parameter bytes; give the "
                      "parameter type a PrintTo:\n${bad}")
endif()
