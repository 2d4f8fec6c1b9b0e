# dde_lint self-test, run by ctest (see tests/CMakeLists.txt).
#
#   cmake -DLINT=<dde_lint> -DFIXTURES=<this dir> -P run_lint_test.cmake
#
# 1. The bad tree must fail (exit 1) with a file:line diagnostic per rule.
# 2. The good twins must pass (exit 0) with no output.
# 3. The layers_bad tree (own tools/dde_layers manifest) must flag the
#    inverted include and the undeclared module; layers_good must accept
#    the downward and audited-allow edges silently.
# 4. The orphan_bad tree must flag both files of the module only a test
#    reaches, and stay silent when scanned without a root (src/ only);
#    orphan_good must accept transitive, directory-relative and
#    header-to-source reach, and the exempt umbrella header.
# 5. An unreadable input path must be a usage error (exit 2).

execute_process(COMMAND ${LINT} --root ${FIXTURES}/bad ${FIXTURES}/bad/src
                RESULT_VARIABLE bad_rc OUTPUT_VARIABLE bad_out
                ERROR_VARIABLE bad_err)
if(NOT bad_rc EQUAL 1)
  message(FATAL_ERROR "bad tree: expected exit 1, got ${bad_rc}\n${bad_out}")
endif()
foreach(want
        "src/bare_assert.cpp:5: \\[bare-assert\\]"
        "src/wall_clock.cpp:6: \\[wall-clock\\]"
        "src/wall_clock.cpp:7: \\[wall-clock\\]"
        "src/unordered_iter.cpp:7: \\[unordered-iter\\]"
        "src/float_accum.cpp:7: \\[float-accumulate\\]"
        "src/mutable_global.cpp:5: \\[mutable-global\\]"
        "src/mutable_global.cpp:8: \\[mutable-global\\]")
  if(NOT bad_out MATCHES "${want}")
    message(FATAL_ERROR "bad tree: missing diagnostic ${want}\n${bad_out}")
  endif()
endforeach()

execute_process(COMMAND ${LINT} --root ${FIXTURES}/layers_bad
                        ${FIXTURES}/layers_bad/src
                RESULT_VARIABLE lbad_rc OUTPUT_VARIABLE lbad_out
                ERROR_VARIABLE lbad_err)
if(NOT lbad_rc EQUAL 1)
  message(FATAL_ERROR
          "layers_bad: expected exit 1, got ${lbad_rc}\n${lbad_out}")
endif()
foreach(want
        "src/base/uses_top.h:3: \\[layer-violation\\].*points upward"
        "src/rogue/thing.cpp:1: \\[layer-violation\\].*not declared")
  if(NOT lbad_out MATCHES "${want}")
    message(FATAL_ERROR "layers_bad: missing diagnostic ${want}\n${lbad_out}")
  endif()
endforeach()

execute_process(COMMAND ${LINT} --root ${FIXTURES}/layers_good
                        ${FIXTURES}/layers_good/src
                RESULT_VARIABLE lgood_rc OUTPUT_VARIABLE lgood_out
                ERROR_VARIABLE lgood_err)
if(NOT lgood_rc EQUAL 0)
  message(FATAL_ERROR
          "layers_good: expected exit 0, got ${lgood_rc}\n${lgood_out}")
endif()
if(NOT lgood_out STREQUAL "")
  message(FATAL_ERROR "layers_good: expected no output\n${lgood_out}")
endif()

execute_process(COMMAND ${LINT} --root ${FIXTURES}/good ${FIXTURES}/good/src
                RESULT_VARIABLE good_rc OUTPUT_VARIABLE good_out
                ERROR_VARIABLE good_err)
if(NOT good_rc EQUAL 0)
  message(FATAL_ERROR
          "good twins: expected exit 0, got ${good_rc}\n${good_out}")
endif()
if(NOT good_out STREQUAL "")
  message(FATAL_ERROR "good twins: expected no output\n${good_out}")
endif()

execute_process(COMMAND ${LINT} --root ${FIXTURES}/orphan_bad
                        ${FIXTURES}/orphan_bad
                RESULT_VARIABLE obad_rc OUTPUT_VARIABLE obad_out
                ERROR_VARIABLE obad_err)
if(NOT obad_rc EQUAL 1)
  message(FATAL_ERROR
          "orphan_bad: expected exit 1, got ${obad_rc}\n${obad_out}")
endif()
foreach(want
        "src/dead/thing.cpp:1: \\[orphan-header\\]"
        "src/dead/thing.h:1: \\[orphan-header\\]"
        "dde_lint: 2 violation")
  if(NOT obad_out MATCHES "${want}")
    message(FATAL_ERROR "orphan_bad: missing diagnostic ${want}\n${obad_out}")
  endif()
endforeach()

execute_process(COMMAND ${LINT} --root ${FIXTURES}/orphan_bad
                        ${FIXTURES}/orphan_bad/src
                RESULT_VARIABLE osrc_rc OUTPUT_VARIABLE osrc_out
                ERROR_VARIABLE osrc_err)
if(NOT osrc_rc EQUAL 0 OR NOT osrc_out STREQUAL "")
  message(FATAL_ERROR
          "orphan_bad src only: expected a silent exit 0, got ${osrc_rc}\n"
          "${osrc_out}")
endif()

execute_process(COMMAND ${LINT} --root ${FIXTURES}/orphan_good
                        ${FIXTURES}/orphan_good
                RESULT_VARIABLE ogood_rc OUTPUT_VARIABLE ogood_out
                ERROR_VARIABLE ogood_err)
if(NOT ogood_rc EQUAL 0 OR NOT ogood_out STREQUAL "")
  message(FATAL_ERROR
          "orphan_good: expected a silent exit 0, got ${ogood_rc}\n"
          "${ogood_out}")
endif()

execute_process(COMMAND ${LINT} ${FIXTURES}/no_such_dir
                RESULT_VARIABLE usage_rc OUTPUT_VARIABLE usage_out
                ERROR_VARIABLE usage_err)
if(NOT usage_rc EQUAL 2)
  message(FATAL_ERROR "unreadable path: expected exit 2, got ${usage_rc}")
endif()

message(STATUS "dde_lint fixture checks passed")
