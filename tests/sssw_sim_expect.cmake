# sssw_sim_expect.cmake — runs sssw_sim on one command and checks how it
# exits and what it prints.
#
#   cmake -DSIM=<sssw_sim binary> -DARGS="<flags>" -DINPUT="<command>"
#         -DEXIT=<code> -DMATCH=<regex> -P sssw_sim_expect.cmake
#
# Fails unless sssw_sim, given ARGS and reading the one-line script INPUT,
# exits with EXIT (a crash reports a signal, never a number) and its stdout
# plus stderr match MATCH.
separate_arguments(args UNIX_COMMAND "${ARGS}")
string(MAKE_C_IDENTIFIER "${ARGS}" tag)
set(script "${CMAKE_CURRENT_BINARY_DIR}/sssw_sim_expect_${tag}.txt")
file(WRITE "${script}" "${INPUT}\n")
execute_process(COMMAND "${SIM}" ${args} --script "${script}"
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE status)
file(REMOVE "${script}")
if(NOT status STREQUAL "${EXIT}")
  message(FATAL_ERROR "sssw_sim ${ARGS} exited with '${status}', want ${EXIT}\n"
                      "${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${MATCH}")
  message(FATAL_ERROR "sssw_sim ${ARGS} printed no match for '${MATCH}':\n"
                      "${out}${err}")
endif()
