# Runs `EXE FLAG VALUE` and fails unless it exits with EXPECT_EXIT and its
# stderr matches the regex EXPECT_STDERR:
#   cmake -DEXE=path -DFLAG=--rep -DVALUE=abc -DEXPECT_EXIT=2 \
#         "-DEXPECT_STDERR=error: --rep" -P expect_exit.cmake
execute_process(COMMAND "${EXE}" "${FLAG}" "${VALUE}"
                RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT "${code}" STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "${FLAG} ${VALUE}: exit '${code}', expected ${EXPECT_EXIT}\n${err}")
endif()
if(NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "${FLAG} ${VALUE}: stderr does not match '${EXPECT_STDERR}'\n${err}")
endif()
