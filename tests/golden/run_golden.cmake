# Committed bench goldens, run by ctest (see tests/CMakeLists.txt) as one
# golden_<bench> test per deterministic bench.
#
#   cmake -DBENCH=<bench exe> -DNAME=<bench> -DGOLDEN=<this dir>
#         -DWORK=<scratch dir> [-DARGS="<arguments>"] -P run_golden.cmake
#
# The bench runs with ARGS (a space-separated command line; default "1",
# a seed count of 1) in a fresh working directory, once under
# DDE_BENCH_JOBS=1 and once under DDE_BENCH_JOBS=4. Both runs must print
# exactly <GOLDEN>/<NAME>.txt, and the SHA-256 of every BENCH_*.json they
# write must match <GOLDEN>/<NAME>.sha256 (one "<sha256>  <file>" line per
# report, sorted by file name; no file for a bench that writes none).
# scale_city's host-measured scheme (process) is removed before hashing;
# everything else is simulated.
#
# On a mismatch the actual output stays under <WORK> and the test prints
# the cp command that refreshes the golden. A trajectory change is a
# deliberate re-baseline: refresh the goldens in the same change.
cmake_minimum_required(VERSION 3.19)  # string(JSON)

foreach(var BENCH NAME GOLDEN WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_golden.cmake: -D${var}=... is required")
  endif()
endforeach()

if(NOT DEFINED ARGS)
  set(ARGS 1)
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")

unset(ENV{DDE_BENCH_REPORT})
unset(ENV{DDE_BENCH_REPORT_DIR})
find_program(DIFF diff)

set(want_txt "")
if(EXISTS ${GOLDEN}/${NAME}.txt)
  file(READ ${GOLDEN}/${NAME}.txt want_txt)
endif()
set(want_sha "")
if(EXISTS ${GOLDEN}/${NAME}.sha256)
  file(READ ${GOLDEN}/${NAME}.sha256 want_sha)
endif()

set(failed FALSE)
foreach(jobs 1 4)
  set(dir ${WORK}/jobs${jobs})
  file(REMOVE_RECURSE ${dir})
  file(MAKE_DIRECTORY ${dir})
  set(ENV{DDE_BENCH_JOBS} ${jobs})
  execute_process(COMMAND ${BENCH} ${args}
                  WORKING_DIRECTORY ${dir}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${NAME} (DDE_BENCH_JOBS=${jobs}): exit ${rc}\n${err}")
  endif()

  file(WRITE ${dir}/${NAME}.txt "${out}")
  if(NOT out STREQUAL want_txt)
    set(failed TRUE)
    message("${NAME} (DDE_BENCH_JOBS=${jobs}): stdout differs from the golden")
    if(DIFF)
      execute_process(COMMAND ${DIFF} -uN ${GOLDEN}/${NAME}.txt ${dir}/${NAME}.txt)
    else()
      message("--- expected\n${want_txt}--- actual\n${out}")
    endif()
    message("refresh: cp ${dir}/${NAME}.txt ${GOLDEN}/${NAME}.txt")
  endif()

  file(GLOB reports RELATIVE ${dir} ${dir}/BENCH_*.json)
  list(SORT reports)
  set(got_sha "")
  foreach(report ${reports})
    file(READ ${dir}/${report} json)
    if(NAME STREQUAL "scale_city")
      foreach(scheme process)
        string(JSON json REMOVE "${json}" schemes ${scheme})
      endforeach()
    endif()
    string(SHA256 sha "${json}")
    string(APPEND got_sha "${sha}  ${report}\n")
  endforeach()

  if(NOT got_sha STREQUAL want_sha)
    set(failed TRUE)
    file(WRITE ${dir}/${NAME}.sha256 "${got_sha}")
    message("${NAME} (DDE_BENCH_JOBS=${jobs}): BENCH_*.json digests differ\n"
            "--- expected\n${want_sha}--- actual\n${got_sha}"
            "refresh: cp ${dir}/${NAME}.sha256 ${GOLDEN}/${NAME}.sha256")
  endif()
endforeach()

if(failed)
  message(FATAL_ERROR "${NAME}: output differs from tests/golden/")
endif()
message(STATUS "${NAME}: stdout and reports match tests/golden/ at jobs 1 and 4")
