# readme_quickstart.cmake — README.md's quickstart block is what quickstart
# prints.
#
#   cmake -DQUICKSTART=<quickstart binary> -DREADME=<README.md> \
#         -P readme_quickstart.cmake
#
# README.md shows the command `./build/examples/quickstart <args>` in one
# fenced block and its output in the next.  This runs the binary with those
# arguments and fails unless its stdout equals the output block.
file(READ "${README}" readme)
string(REGEX MATCH "\n\\./build/examples/quickstart ([^\n]*)\n```\n\n```\n([^`]*)```"
       block "${readme}")
if(NOT block)
  message(FATAL_ERROR "${README}: no quickstart command followed by an output block")
endif()
set(expected "${CMAKE_MATCH_2}")
separate_arguments(args UNIX_COMMAND "${CMAKE_MATCH_1}")

execute_process(COMMAND "${QUICKSTART}" ${args}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "quickstart ${CMAKE_MATCH_1} exited with ${status}")
endif()
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "${README}'s quickstart block is stale.\n"
                      "It shows:\n${expected}\n"
                      "quickstart ${CMAKE_MATCH_1} prints:\n${actual}")
endif()
